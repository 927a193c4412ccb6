package core

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// Property: no sequence of inserts can break the subpopulation's
// invariants (sorted descending, unique keys, within capacity).
func TestSubpopInsertInvariantsProperty(t *testing.T) {
	f := func(seed uint64, capRaw uint8, ops uint8) bool {
		r := rng.New(seed)
		capacity := int(capRaw%10) + 1
		sp := newSubpop(2, capacity)
		for i := 0; i < int(ops); i++ {
			h := newHaplotype(
				[]int{r.Intn(20), 20 + r.Intn(20)},
				float64(r.Intn(50)),
			)
			sp.insert(h)
			if len(sp.members) > capacity {
				return false
			}
			seen := map[string]bool{}
			for j, m := range sp.members {
				if j > 0 && sp.members[j-1].Fitness < m.Fitness {
					return false
				}
				if seen[m.Key()] {
					return false
				}
				seen[m.Key()] = true
			}
			if len(seen) != len(sp.keys) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: after any mix of inserts and removes, the key set matches
// the member list exactly.
func TestSubpopKeysConsistentProperty(t *testing.T) {
	f := func(seed uint64, ops uint8) bool {
		r := rng.New(seed)
		sp := newSubpop(1, 6)
		for i := 0; i < int(ops); i++ {
			if r.Bool(0.7) || len(sp.members) == 0 {
				sp.insert(newHaplotype([]int{r.Intn(30)}, r.Float64()*10))
			} else {
				sp.remove(sp.members[r.Intn(len(sp.members))])
			}
			if len(sp.keys) != len(sp.members) {
				return false
			}
			for _, m := range sp.members {
				if _, ok := sp.keys[m.Key()]; !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: normalized fitness is always within [0, 1] for members of
// the subpopulation.
func TestSubpopNormalizedBoundedProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := rng.New(seed)
		sp := newSubpop(1, 20)
		for i := 0; i < int(n%20)+1; i++ {
			sp.insert(newHaplotype([]int{r.Intn(100)}, r.Float64()*100-50))
		}
		for _, m := range sp.members {
			v := sp.normalized(m.Fitness)
			if v < -1e-12 || v > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: capacities always sum to the population size and respect
// the per-subpopulation floor, for any problem shape.
func TestCapacitiesProperty(t *testing.T) {
	f := func(nRaw, popRaw uint8) bool {
		numSNPs := int(nRaw%200) + 10
		cfg := Config{MinSize: 2, MaxSize: 6, PopulationSize: int(popRaw%200) + 10}.withDefaults()
		caps := cfg.capacities(numSNPs)
		total := 0
		for s := 2; s <= 6; s++ {
			if caps[s] < 2 {
				return false
			}
			total += caps[s]
		}
		// The floor can force the total above tiny budgets; otherwise
		// it must match exactly.
		if cfg.PopulationSize >= 10 && total != cfg.PopulationSize {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the crossover repair never loses or duplicates sites, for
// arbitrary overlapping parents.
func TestCrossoverRepairProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 10 + r.Intn(30)
		k1 := 2 + r.Intn(4)
		k2 := 2 + r.Intn(4)
		p1 := randomSites(r, n, k1)
		p2 := randomSites(r, n, k2)
		// Force overlap by copying a random element when possible.
		c1, c2 := crossoverUniform(r, p1, p2, n)
		lo, hi := k1, k2
		if lo > hi {
			lo, hi = hi, lo
		}
		return len(c1) == lo && len(c2) == hi &&
			sortedUnique(c1, n) && sortedUnique(c2, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
