package ehdiall

import (
	"fmt"
	"math/bits"

	"repro/internal/genotype"
)

// PhasedPair is the maximum-posterior haplotype pair assignment of one
// genotype pattern under estimated haplotype frequencies. Haplotypes
// are bitmasks over the estimation's K sites with H1 <= H2
// numerically.
type PhasedPair struct {
	H1, H2 uint32
	// Posterior is the probability of this pair among all pairs
	// compatible with the pattern, under the Result's frequencies.
	Posterior float64
}

// Phase resolves each pattern to its most likely haplotype pair under
// the fitted frequencies — the per-individual output the original EH
// tool chain reported alongside the frequency table. Patterns must
// have length K and no missing values.
func (r *Result) Phase(patterns [][]genotype.Genotype) ([]PhasedPair, error) {
	if r.Freqs == nil {
		return nil, fmt.Errorf("ehdiall: Phase requires a completed estimation")
	}
	out := make([]PhasedPair, len(patterns))
	for i, pat := range patterns {
		if len(pat) != r.K {
			return nil, fmt.Errorf("ehdiall: pattern %d has length %d, want %d", i, len(pat), r.K)
		}
		var base, hets uint32
		for j, g := range pat {
			switch g {
			case 0:
			case 1:
				hets |= 1 << j
			case 2:
				base |= 1 << j
			default:
				return nil, fmt.Errorf("ehdiall: pattern %d has invalid genotype %d at site %d", i, g, j)
			}
		}
		g := patternGroup{base: base, hets: hets, count: 1}
		total := patternProb(g, r.Freqs)
		bestW := -1.0
		var best PhasedPair
		s := hets
		for {
			h1 := base | s
			h2 := base | (hets ^ s)
			w := r.Freqs[h1] * r.Freqs[h2]
			if w > bestW {
				if h1 > h2 {
					h1, h2 = h2, h1
				}
				best = PhasedPair{H1: h1, H2: h2}
				bestW = w
			}
			if s == 0 {
				break
			}
			s = (s - 1) & hets
		}
		if total > 0 {
			// Unordered-pair posterior: heterozygous pairs appear
			// twice in the ordered-pair sum.
			mult := 1.0
			if best.H1 != best.H2 {
				mult = 2
			}
			best.Posterior = mult * bestW / total
		} else {
			// No compatible pair has positive frequency; fall back to
			// a uniform posterior over the compatible pairs.
			pairs := 1 << bits.OnesCount32(hets)
			if hets != 0 {
				pairs /= 2
			}
			best.Posterior = 1 / float64(pairs)
		}
		out[i] = best
	}
	return out, nil
}
