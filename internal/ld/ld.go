// Package ld computes pairwise linkage disequilibrium between
// biallelic SNPs from unphased genotype data, with the maximum
// likelihood haplotype frequencies of Hill (1974): only double
// heterozygotes are phase ambiguous, and their cis/trans split is
// solved exactly, as the likelihood maximum over the roots of the EM's
// fixed-point cubic and the ends of the admissible range, by
// ehdiall.TwoLocusFreqs, the estimator the GA's k = 2 calls use.
//
// It also implements the paper's §2.3 feasibility conditions on pairs
// of SNPs inside a candidate haplotype: their pairwise disequilibrium
// must stay below a threshold t_d (so the haplotype combines
// non-redundant markers) and their variants must be common enough
// (frequency threshold t_f).
package ld

import (
	"fmt"
	"math"

	"repro/internal/ehdiall"
	"repro/internal/genotype"
)

// Pair summarizes the disequilibrium between two SNPs.
type Pair struct {
	// D is the raw disequilibrium coefficient f11 - pA*pB.
	D float64
	// DPrime is Lewontin's normalized D', in [-1, 1].
	DPrime float64
	// R2 is the squared allelic correlation, in [0, 1].
	R2 float64
	// Chi2 is the allelic association chi-square, 2N * R2.
	Chi2 float64
	// N is the number of individuals typed at both loci.
	N int
}

// Estimate computes the disequilibrium between SNP columns i and j of
// the dataset. Individuals missing either genotype are excluded. An
// error is returned when fewer than two complete individuals exist.
func Estimate(d *genotype.Dataset, i, j int) (Pair, error) {
	var counts [3][3]int
	n := 0
	for k := range d.Individuals {
		gi := d.Individuals[k].Genotypes[i]
		gj := d.Individuals[k].Genotypes[j]
		if gi == genotype.Missing || gj == genotype.Missing {
			continue
		}
		counts[gi][gj]++
		n++
	}
	if n < 2 {
		return Pair{}, fmt.Errorf("ld: fewer than 2 individuals typed at SNPs %d and %d", i, j)
	}

	// f[h] has bit 0 set for allele 2 at locus i, bit 1 at locus j.
	f := ehdiall.TwoLocusFreqs(&counts)
	pA := f[0b01] + f[0b11] // allele "2" frequency at locus i
	pB := f[0b10] + f[0b11] // allele "2" frequency at locus j
	dis := f[0b11] - pA*pB

	p := Pair{D: dis, N: n}
	denom := pA * (1 - pA) * pB * (1 - pB)
	if denom > 0 {
		p.R2 = dis * dis / denom
		var dmax float64
		if dis >= 0 {
			dmax = math.Min(pA*(1-pB), (1-pA)*pB)
		} else {
			dmax = math.Min(pA*pB, (1-pA)*(1-pB))
		}
		if dmax > 0 {
			p.DPrime = dis / dmax
		}
		p.Chi2 = 2 * float64(n) * p.R2
	}
	return p, nil
}

// Constraint captures the paper's two conditions on every pair of SNPs
// within a haplotype (§2.3): |D'| below MaxAbsDPrime (threshold t_d)
// and both minor allele frequencies at least MinMAF (threshold t_f).
// A zero-value Constraint accepts everything.
type Constraint struct {
	// MaxAbsDPrime is t_d; pairs with |D'| above it are infeasible.
	// Zero disables the check.
	MaxAbsDPrime float64
	// MinMAF is t_f; SNPs with minor allele frequency below it are
	// infeasible. Zero disables the check.
	MinMAF float64
}

// FeasiblePair reports whether the pair statistics and the two minor
// allele frequencies satisfy the constraint.
func (c Constraint) FeasiblePair(p Pair, mafI, mafJ float64) bool {
	if c.MaxAbsDPrime > 0 && math.Abs(p.DPrime) > c.MaxAbsDPrime {
		return false
	}
	if c.MinMAF > 0 && (mafI < c.MinMAF || mafJ < c.MinMAF) {
		return false
	}
	return true
}

// FeasibleSet reports whether every pair of the sorted SNP sites
// satisfies the constraint, using a precomputed matrix.
func (c Constraint) FeasibleSet(m *Matrix, maf []float64, sites []int) bool {
	for a := 0; a < len(sites); a++ {
		for b := a + 1; b < len(sites); b++ {
			if !c.FeasiblePair(m.At(sites[a], sites[b]), maf[sites[a]], maf[sites[b]]) {
				return false
			}
		}
	}
	return true
}
