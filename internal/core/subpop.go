package core

import (
	"sort"

	"repro/internal/rng"
)

// subpop is one per-size subpopulation (§4.2). Members are kept sorted
// by descending fitness and deduplicated by SNP set.
type subpop struct {
	size     int // haplotype size of every member
	capacity int
	members  []*Haplotype
	keys     map[string]struct{}
}

func newSubpop(size, capacity int) *subpop {
	return &subpop{
		size:     size,
		capacity: capacity,
		members:  make([]*Haplotype, 0, capacity),
		keys:     make(map[string]struct{}, capacity),
	}
}

// best returns the fittest member, or nil when empty.
func (sp *subpop) best() *Haplotype {
	if len(sp.members) == 0 {
		return nil
	}
	return sp.members[0]
}

// worst returns the least fit member, or nil when empty.
func (sp *subpop) worst() *Haplotype {
	if len(sp.members) == 0 {
		return nil
	}
	return sp.members[len(sp.members)-1]
}

// contains reports whether an identical SNP set is already a member.
func (sp *subpop) contains(h *Haplotype) bool {
	var buf keyBuf
	_, ok := sp.keys[string(h.appendKey(buf[:0]))]
	return ok
}

// insert applies the paper's replacement rule (§4.6): a new individual
// enters if it is not already present and either the subpopulation is
// under capacity or it beats the worst member (which is then dropped).
// It reports whether the individual was inserted.
func (sp *subpop) insert(h *Haplotype) bool {
	if len(h.Sites) != sp.size || !h.Evaluated {
		return false
	}
	var buf, worstBuf keyBuf
	key := h.appendKey(buf[:0])
	if _, dup := sp.keys[string(key)]; dup {
		return false
	}
	if len(sp.members) >= sp.capacity {
		w := sp.worst()
		if h.Fitness <= w.Fitness {
			return false
		}
		delete(sp.keys, string(w.appendKey(worstBuf[:0])))
		sp.members = sp.members[:len(sp.members)-1]
	}
	// Insert keeping descending fitness order.
	i := sort.Search(len(sp.members), func(i int) bool {
		return sp.members[i].Fitness < h.Fitness
	})
	sp.members = append(sp.members, nil)
	copy(sp.members[i+1:], sp.members[i:])
	sp.members[i] = h
	sp.keys[string(key)] = struct{}{}
	return true
}

// insertTracked inserts h and additionally reports whether it became
// the new subpopulation best — the signal the stagnation rule and the
// EvalsAtBest metric key on.
func (sp *subpop) insertTracked(h *Haplotype) (inserted, newBest bool) {
	prev := sp.best()
	if !sp.insert(h) {
		return false, false
	}
	return true, prev == nil || h.Fitness > prev.Fitness
}

// normalized returns the paper's §4.3.1 normalized fitness of a raw
// fitness value relative to this subpopulation's best and worst:
// (f - worst) / (best - worst). Degenerate ranges yield 0.
func (sp *subpop) normalized(f float64) float64 {
	b, w := sp.best(), sp.worst()
	if b == nil || w == nil || b.Fitness == w.Fitness {
		return 0
	}
	return (f - w.Fitness) / (b.Fitness - w.Fitness)
}

// mean returns the mean fitness of the members (0 when empty).
func (sp *subpop) mean() float64 {
	if len(sp.members) == 0 {
		return 0
	}
	sum := 0.0
	for _, m := range sp.members {
		sum += m.Fitness
	}
	return sum / float64(len(sp.members))
}

// tournament selects a parent by k-tournament: the fittest of k
// uniformly drawn members.
func (sp *subpop) tournament(r *rng.RNG, k int) *Haplotype {
	if len(sp.members) == 0 {
		return nil
	}
	best := sp.members[r.Intn(len(sp.members))]
	for i := 1; i < k; i++ {
		c := sp.members[r.Intn(len(sp.members))]
		if c.Fitness > best.Fitness {
			best = c
		}
	}
	return best
}

// belowMean returns the members whose fitness is strictly below the
// subpopulation mean — the individuals the random immigrant mechanism
// replaces (§4.4).
func (sp *subpop) belowMean() []*Haplotype {
	m := sp.mean()
	var out []*Haplotype
	for _, h := range sp.members {
		if h.Fitness < m {
			out = append(out, h)
		}
	}
	return out
}

// remove deletes a member by identity (used by random immigrants).
func (sp *subpop) remove(h *Haplotype) {
	for i, m := range sp.members {
		if m == h {
			sp.members = append(sp.members[:i], sp.members[i+1:]...)
			var buf keyBuf
			delete(sp.keys, string(h.appendKey(buf[:0])))
			return
		}
	}
}
