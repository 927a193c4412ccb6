package ehdiall

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/genotype"
)

// parityDataset builds a random dataset whose columns exercise the
// missing-code and tail-masking paths.
func parityDataset(rng *rand.Rand, rows, snps int, missRate float64) *genotype.Dataset {
	d := &genotype.Dataset{SNPs: make([]genotype.SNP, snps), Individuals: make([]genotype.Individual, rows)}
	for j := range d.SNPs {
		d.SNPs[j].Name = "S" + string(rune('a'+j))
	}
	for i := range d.Individuals {
		gs := make([]genotype.Genotype, snps)
		for j := range gs {
			if rng.Float64() < missRate {
				gs[j] = genotype.Missing
			} else {
				gs[j] = genotype.Genotype(rng.Intn(3))
			}
		}
		d.Individuals[i] = genotype.Individual{ID: "I", Status: genotype.Status(rng.Intn(3)), Genotypes: gs}
	}
	return d
}

// requireIdentical fails unless two Results are bit-for-bit equal in
// every field (float comparisons use ==, i.e. exact bits for non-NaN).
func requireIdentical(t *testing.T, tag string, packed, byte_ *Result) {
	t.Helper()
	if packed.K != byte_.K || packed.N != byte_.N {
		t.Fatalf("%s: K/N mismatch: packed %d/%d, byte %d/%d", tag, packed.K, packed.N, byte_.K, byte_.N)
	}
	if packed.LogLik() != byte_.LogLik() || packed.NullLogLik() != byte_.NullLogLik() {
		t.Fatalf("%s: loglik mismatch: packed (%v,%v), byte (%v,%v)",
			tag, packed.LogLik(), packed.NullLogLik(), byte_.LogLik(), byte_.NullLogLik())
	}
	if packed.Iterations != byte_.Iterations || packed.Converged != byte_.Converged {
		t.Fatalf("%s: EM trajectory mismatch: packed %d/%v, byte %d/%v",
			tag, packed.Iterations, packed.Converged, byte_.Iterations, byte_.Converged)
	}
	if len(packed.Freqs) != len(byte_.Freqs) || len(packed.NullFreqs) != len(byte_.NullFreqs) {
		t.Fatalf("%s: table size mismatch", tag)
	}
	for h := range packed.Freqs {
		if packed.Freqs[h] != byte_.Freqs[h] {
			t.Fatalf("%s: Freqs[%d] = %v (packed) vs %v (byte)", tag, h, packed.Freqs[h], byte_.Freqs[h])
		}
		if packed.NullFreqs[h] != byte_.NullFreqs[h] {
			t.Fatalf("%s: NullFreqs[%d] = %v (packed) vs %v (byte)", tag, h, packed.NullFreqs[h], byte_.NullFreqs[h])
		}
	}
}

// TestEstimatePackedParity runs the packed and byte estimators over
// random datasets, row groups and site subsets and requires
// bit-identical Results — including a reused Scratch across calls.
func TestEstimatePackedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var scr Scratch
	for _, rows := range []int{4, 31, 33, 64, 65, 176} {
		for _, missRate := range []float64{0, 0.3} {
			d := parityDataset(rng, rows, 9, missRate)
			packed := genotype.PackDataset(d)
			groups := map[string][]int{
				"affected":   d.ByStatus(genotype.Affected),
				"unaffected": d.ByStatus(genotype.Unaffected),
				"all":        nil,
			}
			for name, g := range groups {
				mask := genotype.NewPlaneMask(rows, g)
				groupRows := g
				if groupRows == nil {
					groupRows = make([]int, rows)
					for i := range groupRows {
						groupRows[i] = i
					}
				}
				for trial := 0; trial < 4; trial++ {
					k := 1 + rng.Intn(5)
					sites := rng.Perm(d.NumSNPs())[:k]
					genotype.SortSites(sites)

					byteRes, byteErr := EstimateDataset(d, groupRows, sites, Config{})
					cols := make([]genotype.PackedColumn, k)
					for i, s := range sites {
						cols[i] = packed.Col(s)
					}
					packedRes, packedErr := EstimatePacked(cols, mask, Config{}, &scr)
					if (byteErr == nil) != (packedErr == nil) {
						t.Fatalf("rows=%d miss=%v group=%s sites=%v: errors disagree: byte %v, packed %v",
							rows, missRate, name, sites, byteErr, packedErr)
					}
					if byteErr != nil {
						if !errors.Is(byteErr, ErrNoData) || !errors.Is(packedErr, ErrNoData) {
							t.Fatalf("unexpected errors: byte %v, packed %v", byteErr, packedErr)
						}
						continue
					}
					requireIdentical(t, "random", packedRes, byteRes)
				}
			}
		}
	}
}

// TestEstimatePackedNoData: a group whose every member is missing at a
// selected site must fail with ErrNoData on both paths.
func TestEstimatePackedNoData(t *testing.T) {
	d := parityDataset(rand.New(rand.NewSource(8)), 40, 3, 0)
	for i := range d.Individuals {
		d.Individuals[i].Genotypes[1] = genotype.Missing
	}
	packed := genotype.PackDataset(d)
	cols := []genotype.PackedColumn{packed.Col(0), packed.Col(1)}
	_, err := EstimatePacked(cols, genotype.NewPlaneMask(d.NumIndividuals(), nil), Config{}, nil)
	if !errors.Is(err, ErrNoData) {
		t.Fatalf("EstimatePacked over all-missing column: err = %v, want ErrNoData", err)
	}
}

// TestEstimatePackedValidation mirrors Estimate's k bounds.
func TestEstimatePackedValidation(t *testing.T) {
	d := parityDataset(rand.New(rand.NewSource(9)), 10, 2, 0)
	packed := genotype.PackDataset(d)
	if _, err := EstimatePacked(nil, genotype.NewPlaneMask(d.NumIndividuals(), nil), Config{}, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
	big := make([]genotype.PackedColumn, MaxSNPs+1)
	for i := range big {
		big[i] = packed.Col(0)
	}
	if _, err := EstimatePacked(big, genotype.NewPlaneMask(d.NumIndividuals(), nil), Config{}, nil); err == nil {
		t.Fatal("k > MaxSNPs accepted")
	}
	short := genotype.PackRange(parityDataset(rand.New(rand.NewSource(10)), 5, 1, 0), 0, 1)[0]
	if _, err := EstimatePacked([]genotype.PackedColumn{short}, genotype.NewPlaneMask(d.NumIndividuals(), nil), Config{}, nil); err == nil {
		t.Fatal("column/mask row mismatch accepted")
	}
}

// refGroupPacked is the map-based reference of groupPacked: it reads
// the columns row by row with PackedColumn.Get, skips unselected and
// incomplete rows, and groups the rest by (base, hets) in
// first-appearance order, with the per-site allele-2 tallies.
func refGroupPacked(cols []genotype.PackedColumn, mask genotype.PlaneMask) ([]patternGroup, int, []int) {
	idx := make(map[[2]uint32]int)
	var groups []patternGroup
	count2 := make([]int, len(cols))
	n := 0
rows:
	for row := 0; row < mask.NumRows(); row++ {
		if mask.Word(row/genotype.WordGenotypes)>>(2*uint(row%genotype.WordGenotypes))&1 == 0 {
			continue
		}
		var base, hets uint32
		for j, c := range cols {
			switch c.Get(row) {
			case genotype.Missing:
				continue rows
			case 1:
				hets |= 1 << j
			case 2:
				base |= 1 << j
			}
		}
		n++
		for j := range cols {
			count2[j] += int(base>>j&1)*2 + int(hets>>j&1)
		}
		key := [2]uint32{base, hets}
		if gi, ok := idx[key]; ok {
			groups[gi].count++
			continue
		}
		idx[key] = len(groups)
		groups = append(groups, patternGroup{base: base, hets: hets, count: 1})
	}
	return groups, n, count2
}

// requireReferenceGrouping runs groupPacked on scr and fails unless its
// groups, order, row count and allele tallies equal the reference's.
func requireReferenceGrouping(t *testing.T, tag string, cols []genotype.PackedColumn, mask genotype.PlaneMask, scr *Scratch) {
	t.Helper()
	wantGroups, wantN, wantCount2 := refGroupPacked(cols, mask)
	groups, n := groupPacked(cols, mask, scr)
	if n != wantN || len(groups) != len(wantGroups) {
		t.Fatalf("%s: %d rows in %d groups, reference %d rows in %d groups", tag, n, len(groups), wantN, len(wantGroups))
	}
	for i := range groups {
		if groups[i] != wantGroups[i] {
			t.Fatalf("%s: group %d is %+v, reference %+v", tag, i, groups[i], wantGroups[i])
		}
	}
	for j, c := range wantCount2 {
		if scr.count2[j] != c {
			t.Fatalf("%s: site %d allele-2 tally %d, reference %d", tag, j, scr.count2[j], c)
		}
	}
}

// TestGroupTableCorpus checks the flat grouping table against the
// reference on every call of the fixed corpus, through one Scratch
// whose generations run on from call to call.
func TestGroupTableCorpus(t *testing.T) {
	var scr Scratch
	for i, c := range paperCorpus(t) {
		requireReferenceGrouping(t, fmt.Sprintf("corpus case %d", i), c.cols, c.mask, &scr)
	}
}

// TestGroupTableManyPatterns groups MaxSNPs random complete columns
// over every row, so nearly every row is its own pattern, the table
// runs close to half full and probes collide; the mask's row count
// changes between calls on one Scratch, growing and shrinking the
// table in use.
func TestGroupTableManyPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var scr Scratch
	for _, rows := range []int{1000, 37, 2500, 64, 1000} {
		d := parityDataset(rng, rows, MaxSNPs, 0)
		packed := genotype.PackDataset(d)
		cols := make([]genotype.PackedColumn, MaxSNPs)
		for j := range cols {
			cols[j] = packed.Col(j)
		}
		requireReferenceGrouping(t, fmt.Sprintf("%d rows", rows), cols, genotype.NewPlaneMask(d.NumIndividuals(), nil), &scr)
		if len(scr.groups) < rows*9/10 {
			t.Fatalf("%d rows give only %d groups; the case does not load the table", rows, len(scr.groups))
		}
	}
}

// TestGroupTableGenerationWrap runs a call whose generation counter
// wraps: the stamps of earlier calls must not read as occupied slots.
func TestGroupTableGenerationWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d := parityDataset(rng, 300, 8, 0.1)
	packed := genotype.PackDataset(d)
	var scr Scratch
	for k := 1; k <= 8; k++ {
		cols := make([]genotype.PackedColumn, k)
		for j := range cols {
			cols[j] = packed.Col(j)
		}
		requireReferenceGrouping(t, fmt.Sprintf("k=%d", k), cols, genotype.NewPlaneMask(d.NumIndividuals(), nil), &scr)
		scr.gen = math.MaxUint32 - 1
		requireReferenceGrouping(t, fmt.Sprintf("k=%d before the wrap", k), cols[:1], genotype.NewPlaneMask(d.NumIndividuals(), nil), &scr)
		requireReferenceGrouping(t, fmt.Sprintf("k=%d at the wrap", k), cols, genotype.NewPlaneMask(d.NumIndividuals(), nil), &scr)
		if scr.gen != 1 {
			t.Fatalf("generation after the wrap is %d, want 1", scr.gen)
		}
	}
}

// BenchmarkEstimateRows runs EstimatePacked on a warm Scratch over
// 10,000 rows of independent uniform genotypes, at k = 3 (27 patterns
// of about 370 rows each) and k = 6 (up to 729 patterns of about 14).
// The EM converges in a few steps here, so the two log-likelihoods are
// a large share of each call, and a pattern's count decides whether
// llAcc multiplies its probability in or takes its logarithm: this
// benchmark pins llMulMax. (k = 2 calls take the exact two-locus path,
// which has no EM.)
func BenchmarkEstimateRows(b *testing.B) {
	const rows = 10000
	for _, k := range []int{3, 6} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			d := parityDataset(rand.New(rand.NewSource(int64(k))), rows, k, 0)
			packed := genotype.PackDataset(d)
			cols := make([]genotype.PackedColumn, k)
			for j := range cols {
				cols[j] = packed.Col(j)
			}
			mask := genotype.NewPlaneMask(rows, nil)
			var scr Scratch
			if _, err := EstimatePacked(cols, mask, Config{}, &scr); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := EstimatePacked(cols, mask, Config{}, &scr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
