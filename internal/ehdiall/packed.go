package ehdiall

// Packed front-end of the EM estimator: genotype patterns are grouped
// word-parallel from 2-bit packed columns (genotype.PackedColumn)
// instead of byte-per-genotype scans. Only the pattern extraction
// differs from the byte path — grouping order, group counts and the
// marginal allele frequencies are constructed to be identical, and the
// float arithmetic downstream is the shared estimateCore — so results
// are bit-identical to Estimate over the same rows and sites.

import (
	"fmt"
	"math/bits"

	"repro/internal/genotype"
)

// Scratch holds the reusable buffers of one estimation worker: the
// pattern-grouping table and groups, the compiled E-step plan, the EM's
// frequency and count vectors and the SQUAREM cycle's vectors. A zero
// Scratch is ready to use; buffers grow on demand and are retained
// across calls, making repeated EstimatePacked calls allocation-free
// in steady state. A Scratch must not be shared between concurrent
// estimations, and a Result produced with a Scratch aliases its
// storage — it is valid only until the scratch's next use.
type Scratch struct {
	groups []patternGroup
	p2     []float64

	// slots is groupPacked's open-addressing table from a (base, hets)
	// pattern to its index in groups. A slot is occupied only while its
	// stamp equals gen, and every call takes a new gen, so each call
	// starts from an empty table without clearing it.
	slots []groupSlot
	gen   uint32

	// Per-word class planes of the gathered columns, one entry per
	// site (k <= MaxSNPs).
	het  [MaxSNPs]uint64
	hom2 [MaxSNPs]uint64
	// Per-site allele-2 tallies over complete-case rows.
	count2 [MaxSNPs]int

	// plan is the call's E-step, compiled once after grouping.
	plan estepPlan

	nullFreqs, freqs, counts []float64
	sq                       squaremBufs
	res                      Result
}

// EstimatePacked runs the EM over the rows selected by mask on the
// given packed columns (one per selected SNP, all with mask's row
// count). It is the packed counterpart of EstimateDataset followed by
// Estimate: complete-case rows — those not missing at any selected
// site — are grouped by genotype pattern in ascending row order, and
// the shared estimation core runs on the groups. scr may be nil (every
// call then allocates); with a scratch the returned Result aliases
// scratch storage and is valid only until the scratch's next use.
func EstimatePacked(cols []genotype.PackedColumn, mask genotype.PlaneMask, cfg Config, scr *Scratch) (*Result, error) {
	k := len(cols)
	if k <= 0 {
		return nil, fmt.Errorf("ehdiall: k = %d, need at least 1 SNP", k)
	}
	if k > MaxSNPs {
		return nil, fmt.Errorf("ehdiall: k = %d exceeds MaxSNPs = %d", k, MaxSNPs)
	}
	for i, c := range cols {
		if c.Len() != mask.NumRows() {
			return nil, fmt.Errorf("ehdiall: column %d has %d rows, mask has %d", i, c.Len(), mask.NumRows())
		}
	}
	cfg = cfg.withDefaults()
	if scr == nil {
		scr = &Scratch{}
	}

	groups, n := groupPacked(cols, mask, scr)
	if n == 0 {
		return nil, ErrNoData
	}

	// Marginal allele-2 frequencies from the popcount tallies. The
	// byte path accumulates the same whole numbers as floats; both
	// sums are exact integers below 2^53, and the division is the
	// identical expression, so the marginals are bit-identical.
	scr.p2 = growFloats(scr.p2, k)
	for j := 0; j < k; j++ {
		scr.p2[j] = float64(scr.count2[j]) / (2 * float64(n))
	}
	return estimateCore(groups, n, k, scr.p2, cfg, scr), nil
}

// groupSlot is one slot of groupPacked's table: the index into
// Scratch.groups of the pattern it holds, live while stamp is the
// current generation.
type groupSlot struct {
	stamp uint32
	group int32
}

// groupPacked walks the packed columns word by word, drops rows with a
// missing code at any site, and groups the surviving complete-case
// rows by (base, hets) pattern in first-appearance order. Because
// words and bits are visited in ascending row order, the grouping
// order — and with it every order-sensitive float reduction
// downstream — matches the byte path's row loop exactly. It also
// accumulates the per-site allele-2 tallies (2 per hom2 row, 1 per het
// row) into scr.count2 via popcounts.
//
// Patterns are looked up in a flat linear-probing table of a power of
// two at least twice the mask's row count, so it is at most half full:
// there are no more groups than rows.
func groupPacked(cols []genotype.PackedColumn, mask genotype.PlaneMask, scr *Scratch) ([]patternGroup, int) {
	k := len(cols)
	scr.groups = scr.groups[:0]
	slots, gen, shift := scr.resetTable(mask.NumRows())
	tmask := uint64(len(slots) - 1)
	for j := 0; j < k; j++ {
		scr.count2[j] = 0
	}
	n := 0
	for w := 0; w < cols[0].NumWords(); w++ {
		// cm narrows from the selected rows to the complete cases of
		// this word: each column's missing plane knocks its untyped
		// rows out.
		cm := mask.Word(w)
		if cm == 0 {
			continue
		}
		for j := 0; j < k; j++ {
			het, hom2, miss := cols[j].Planes(w)
			scr.het[j], scr.hom2[j] = het, hom2
			cm &^= miss
			if cm == 0 {
				break
			}
		}
		if cm == 0 {
			continue
		}
		for j := 0; j < k; j++ {
			scr.count2[j] += 2*bits.OnesCount64(scr.hom2[j]&cm) + bits.OnesCount64(scr.het[j]&cm)
		}
		n += bits.OnesCount64(cm)
		// Emit surviving rows in ascending bit (= row) order.
		for rest := cm; rest != 0; rest &= rest - 1 {
			pos := uint(bits.TrailingZeros64(rest))
			var base, hets uint32
			for j := 0; j < k; j++ {
				base |= uint32((scr.hom2[j]>>pos)&1) << j
				hets |= uint32((scr.het[j]>>pos)&1) << j
			}
			key := uint64(base)<<32 | uint64(hets)
			for h := (key * 0x9e3779b97f4a7c15) >> shift; ; h = (h + 1) & tmask {
				sl := &slots[h]
				if sl.stamp != gen {
					*sl = groupSlot{stamp: gen, group: int32(len(scr.groups))}
					scr.groups = append(scr.groups, patternGroup{base: base, hets: hets, count: 1})
					break
				}
				if g := &scr.groups[sl.group]; g.base == base && g.hets == hets {
					g.count++
					break
				}
			}
		}
	}
	return scr.groups, n
}

// resetTable readies the grouping table for a mask of rows rows and
// returns its slots, the call's generation and the hash shift that maps
// a 64-bit product onto a slot index. The table grows to the smallest
// power of two at least 2*rows and is reused as a prefix when smaller
// masks follow. Taking a new generation empties it; only when the
// counter wraps are the stamps cleared.
func (scr *Scratch) resetTable(rows int) ([]groupSlot, uint32, uint) {
	logSize := bits.Len(uint(2*max(rows, 1) - 1))
	size := 1 << logSize
	if len(scr.slots) < size {
		scr.slots = make([]groupSlot, size)
	}
	scr.gen++
	if scr.gen == 0 {
		clear(scr.slots)
		scr.gen = 1
	}
	return scr.slots[:size], scr.gen, uint(64 - logSize)
}
