// Package core implements the paper's contribution: a dedicated
// multipopulation adaptive genetic algorithm for discovering
// disease-associated haplotypes of several sizes at once.
//
// The global population is split into one subpopulation per haplotype
// size (fitness values of different sizes are not comparable, §4.2).
// Three mutation operators (SNP replacement, reduction, augmentation)
// and two crossover operators (intra- and inter-population uniform
// crossover) are applied with rates adapted every generation from
// their measured profit, following Hong, Wang & Chen (§4.3). Random
// immigrants re-seed stagnating populations (§4.4), replacement is
// better-than-worst with duplicate rejection, and the run stops when
// no subpopulation best has improved for a fixed number of
// generations (§4.6). Evaluation batches are deduplicated and
// dispatched through the pluggable fitness.Evaluator seam: package
// engine provides the default native worker pool with a memoizing
// cache, and package master the paper-fidelity synchronous
// master/slave pool and its PVM simulation (§4.5).
package core

import (
	"fmt"
	"strconv"
	"strings"
)

// Haplotype is one GA individual: a candidate association of SNPs. The
// paper's encoding (§4.1) is reproduced exactly: the size, a table of
// SNP indices in ascending order without repetition, and the fitness
// value.
type Haplotype struct {
	// Sites are strictly increasing SNP column indices.
	Sites []int `json:"sites"`
	// Fitness is the evaluation pipeline's score; valid only when
	// Evaluated is true.
	Fitness float64 `json:"fitness"`
	// Evaluated records whether Fitness has been computed.
	Evaluated bool `json:"evaluated"`
}

// Size returns the number of SNPs in the haplotype.
func (h *Haplotype) Size() int { return len(h.Sites) }

// Clone returns a deep copy.
func (h *Haplotype) Clone() *Haplotype {
	return &Haplotype{
		Sites:     append([]int(nil), h.Sites...),
		Fitness:   h.Fitness,
		Evaluated: h.Evaluated,
	}
}

// Key returns a canonical string identity of the SNP set, used for
// duplicate rejection: the sites in decimal, comma-separated.
func (h *Haplotype) Key() string {
	var buf keyBuf
	return string(h.appendKey(buf[:0]))
}

// keyBuf is stack room for a key: 64 bytes hold seven six-digit sites.
// A map lookup by string(h.appendKey(buf[:0])) then allocates nothing;
// only a key a map stores is copied to the heap.
type keyBuf [64]byte

// appendKey appends Key's text to dst.
func (h *Haplotype) appendKey(dst []byte) []byte {
	for i, s := range h.Sites {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(s), 10)
	}
	return dst
}

// Contains reports whether the haplotype includes the SNP column s.
func (h *Haplotype) Contains(s int) bool {
	for _, v := range h.Sites {
		if v == s {
			return true
		}
		if v > s {
			return false
		}
	}
	return false
}

// validSites reports whether sites are strictly increasing within
// [0, numSNPs).
func validSites(sites []int, numSNPs int) bool {
	prev := -1
	for _, s := range sites {
		if s <= prev || s < 0 || s >= numSNPs {
			return false
		}
		prev = s
	}
	return true
}

// String renders the haplotype as its 1-based SNP numbers and fitness,
// matching the paper's Table 2 presentation (e.g. "8 12 15").
func (h *Haplotype) String() string {
	var b strings.Builder
	for i, s := range h.Sites {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", s+1)
	}
	if h.Evaluated {
		fmt.Fprintf(&b, " (fitness %.3f)", h.Fitness)
	}
	return b.String()
}

// insertSorted inserts the value v into the sorted slice s, keeping it
// sorted. It assumes v is not already present.
func insertSorted(s []int, v int) []int {
	i := 0
	for i < len(s) && s[i] < v {
		i++
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
