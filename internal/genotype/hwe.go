package genotype

// Hardy-Weinberg equilibrium testing. The EH-DIALL EM pairs haplotypes
// under HWE; markers that violate it (genotyping artifacts, population
// stratification) poison the estimation, so checking HWE per SNP is
// the standard QC step before a linkage disequilibrium study.

import (
	"fmt"

	"repro/internal/stats"
)

// HWEResult is the Hardy-Weinberg test of one SNP.
type HWEResult struct {
	// Observed genotype counts (11, 12, 22).
	Obs [3]int
	// Expected counts under HWE given the allele frequencies.
	Expected [3]float64
	// ChiSquare is the 1-df goodness-of-fit statistic; PValue its
	// asymptotic upper tail.
	ChiSquare float64
	PValue    float64
	// Typed is the number of individuals with a genotype call.
	Typed int
}

// HWETest computes the chi-square Hardy-Weinberg test for SNP j over
// the given individual rows (nil = everyone). The test conventionally
// uses controls only in case/control studies; pass
// d.ByStatus(Unaffected) for that.
func (d *Dataset) HWETest(j int, rows []int) (HWEResult, error) {
	if j < 0 || j >= d.NumSNPs() {
		return HWEResult{}, fmt.Errorf("genotype: SNP index %d out of range", j)
	}
	n := len(rows)
	if rows == nil {
		n = d.NumIndividuals()
	}
	var res HWEResult
	for k := 0; k < n; k++ {
		r := k // nil rows: every individual, without building an index
		if rows != nil {
			r = rows[k]
		}
		g := d.Individuals[r].Genotypes[j]
		if g == Missing {
			continue
		}
		res.Obs[g]++
		res.Typed++
	}
	if res.Typed == 0 {
		return res, fmt.Errorf("genotype: SNP %d has no typed individuals in the selection", j)
	}
	hweFinish(&res)
	return res, nil
}

// hweFinish fills Expected, ChiSquare and PValue from the observed
// counts. It is the single copy of the test arithmetic, shared by the
// byte path (Dataset.HWETest) and the packed path (Packed.HWETest) so
// their results are bit-identical. Typed must be positive.
func hweFinish(res *HWEResult) {
	n := float64(res.Typed)
	p2 := (2*float64(res.Obs[2]) + float64(res.Obs[1])) / (2 * n) // allele-2 freq
	p1 := 1 - p2
	res.Expected = [3]float64{n * p1 * p1, 2 * n * p1 * p2, n * p2 * p2}
	if p1 == 0 || p2 == 0 {
		// Monomorphic: trivially in equilibrium.
		res.PValue = 1
		return
	}
	chi := 0.0
	for i := 0; i < 3; i++ {
		dlt := float64(res.Obs[i]) - res.Expected[i]
		chi += dlt * dlt / res.Expected[i]
	}
	res.ChiSquare = chi
	res.PValue = stats.ChiSquareSurvival(chi, 1)
}

// HWEFilter returns the SNP columns whose Hardy-Weinberg p-value (over
// the given rows) is at least alpha — the columns safe to use in an
// EH-DIALL analysis.
func (d *Dataset) HWEFilter(rows []int, alpha float64) ([]int, error) {
	if alpha < 0 || alpha >= 1 {
		return nil, fmt.Errorf("genotype: alpha %v out of [0, 1)", alpha)
	}
	var keep []int
	for j := 0; j < d.NumSNPs(); j++ {
		res, err := d.HWETest(j, rows)
		if err != nil {
			continue // untypable SNPs are dropped
		}
		if res.PValue >= alpha {
			keep = append(keep, j)
		}
	}
	if len(keep) == 0 {
		return nil, fmt.Errorf("genotype: no SNP passes HWE at alpha %v", alpha)
	}
	return keep, nil
}
