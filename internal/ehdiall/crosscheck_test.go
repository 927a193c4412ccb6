package ehdiall_test

import (
	"math"
	"testing"

	"repro/internal/ehdiall"
	"repro/internal/genotype"
	"repro/internal/ld"
	"repro/internal/rng"
)

// Package ld tallies its own 3×3 genotype table and solves it with
// ehdiall.TwoLocusFreqs, the solver this package's k = 2 calls run on
// the table of their pattern groups. The test holds ld's tallying and
// haplotype indexing to the estimator's: at K = 2 both must give the
// same disequilibrium. It is an external test because ld imports
// ehdiall.
func TestTwoLocusEMAgreesWithLDPackage(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		n := 30 + r.Intn(100)
		d := &genotype.Dataset{SNPs: []genotype.SNP{{Name: "A"}, {Name: "B"}}}
		rows := make([]int, n)
		for i := 0; i < n; i++ {
			rows[i] = i
			d.Individuals = append(d.Individuals, genotype.Individual{
				ID: "x",
				Genotypes: []genotype.Genotype{
					genotype.Genotype(r.Intn(3)),
					genotype.Genotype(r.Intn(3)),
				},
			})
		}
		pair, err := ld.Estimate(d, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ehdiall.EstimateDataset(d, rows, []int{0, 1}, ehdiall.Config{})
		if err != nil {
			t.Fatal(err)
		}
		// ld's D = f11 - pA*pB with pA, pB the allele-2 frequencies.
		// Haplotype bit 0 is locus A (allele 2 = 1), bit 1 locus B.
		f11 := res.Freqs[0b11]
		pA := res.Freqs[0b01] + res.Freqs[0b11]
		pB := res.Freqs[0b10] + res.Freqs[0b11]
		dCoef := f11 - pA*pB
		if math.Abs(dCoef-pair.D) > 1e-6 {
			t.Fatalf("seed %d: ehdiall D = %v, ld D = %v", seed, dCoef, pair.D)
		}
	}
}
