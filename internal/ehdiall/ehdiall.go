// Package ehdiall reimplements the EH-DIALL program of Terwilliger &
// Ott used by the paper to evaluate haplotypes: an
// expectation-maximization estimator of multi-locus haplotype
// frequencies from unphased genotype data.
//
// Given k selected biallelic SNPs, an individual's genotype pattern
// determines its haplotype pair up to phase: every heterozygous site
// doubles the number of compatible pairs. The EM algorithm iterates
// between distributing each individual over its compatible pairs in
// proportion to current haplotype frequencies (E-step) and
// re-estimating frequencies from expected counts (M-step), assuming
// Hardy-Weinberg pairing. Each call runs that plain EM first; a call
// still short of the tolerance after 50 steps continues with SQUAREM
// extrapolation (Varadhan & Roland, Scand. J. Stat. 35, 2008), whose
// likelihood guard keeps the ascent monotone. Likelihoods are computed
// with allelic association (hypothesis H1, the EM solution) and
// without (hypothesis H0, products of single-site allele frequencies),
// exactly as EH-DIALL reports them, but only when asked: the GA's
// fitness reads the frequencies alone, so a Result forms its
// log-likelihoods on demand.
//
// A call over two SNPs (k = 2) needs no iteration: the double
// heterozygote is the only genotype of ambiguous phase, so the
// likelihood has one free parameter, and its maximum is a root of the
// EM's fixed-point cubic or an end of the admissible interval (Hill
// 1974). Both front-ends reduce such a call to its integer 3×3 genotype
// table and solve it exactly (twolocus.go); the EM below serves k = 1
// and k >= 3.
//
// A pattern with h heterozygous sites expands into 2^(h-1) unordered
// haplotype pairs (one pair when h = 0), and the haplotype table is
// 2^k, which is the genuine source of the paper's Figure 4: evaluation
// cost grows exponentially with haplotype size. Each call compiles its
// E-step once (estepPlan), the fixed counts of the patterns with a
// single compatible pair and a flat pair list for every other pattern,
// and runs it on every step. Every log-likelihood, the extrapolation
// guard's included, is formed in one accumulator with a single
// logarithm (llAcc).
package ehdiall

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/genotype"
	"repro/internal/stats"
)

// MaxSNPs bounds the number of SNPs per estimation; the haplotype
// table is 2^k entries, so larger values are refused rather than
// exhausting memory.
const MaxSNPs = 20

// Config tunes the EM iteration. The zero value selects defaults.
// Neither field applies to a k = 2 call, which is solved exactly.
type Config struct {
	// Tol is the convergence threshold on the L1 change of the
	// frequency vector over one plain EM step (default 1e-9).
	Tol float64
	// MaxIter bounds the E-steps of one estimation, those inside
	// extrapolation cycles included (default 500).
	MaxIter int
}

func (c Config) withDefaults() Config {
	if c.Tol <= 0 {
		c.Tol = 1e-9
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 500
	}
	return c
}

// Result is the outcome of one EH-DIALL estimation over k SNPs.
type Result struct {
	// K is the number of SNPs in the haplotype.
	K int
	// N is the number of complete-case individuals used.
	N int
	// Freqs has 2^K maximum-likelihood haplotype frequencies under
	// H1 (allelic association). Haplotype h has bit i set when the
	// i-th selected SNP carries allele 2.
	Freqs []float64
	// NullFreqs has the 2^K product-of-allele-frequency haplotype
	// frequencies under H0 (no association).
	NullFreqs []float64
	// Iterations is the number of E-steps performed, those inside
	// extrapolation cycles included. A k = 2 call is solved exactly,
	// with Iterations 0.
	Iterations int
	// Converged reports whether a plain EM step met the tolerance
	// within MaxIter E-steps. A k = 2 call, solved exactly, is always
	// converged.
	Converged bool

	// What the log-likelihood methods form their values from, so that
	// an estimation forms none: a k = 2 call's genotype table, any
	// other call's E-step plan (nil for k = 2).
	cells tableCells
	plan  *estepPlan
}

// LogLik returns the sample log-likelihood under H1, at Freqs. It is
// formed on each call, from storage that follows Freqs' aliasing rule.
func (r *Result) LogLik() float64 { return r.logLik(r.Freqs) }

// NullLogLik returns the sample log-likelihood under H0, at NullFreqs,
// formed as LogLik is.
func (r *Result) NullLogLik() float64 { return r.logLik(r.NullFreqs) }

// logLik is the sample log-likelihood under haplotype frequencies f:
// the plan's, or for k = 2 the table's.
func (r *Result) logLik(f []float64) float64 {
	if r.plan != nil {
		return r.plan.logLik(f)
	}
	return r.cells.logLik(f)
}

// LRT returns the likelihood-ratio test statistic 2(LL1 - LL0). It is
// non-negative: the EM starts from the H0 frequencies and its
// likelihood never falls (plain EM steps ascend, and the monotone
// guard rejects any extrapolation below the plain steps it replaces),
// and a k = 2 call's exact maximum is at least the likelihood at the
// H0 point, which lies in the interval it maximizes over. Negative
// rounding noise is reported as 0. The fitness reads only Freqs, so
// this is the report's statistic, not the GA's.
func (r *Result) LRT() float64 {
	v := 2 * (r.LogLik() - r.NullLogLik())
	if v < 0 {
		return 0 // numerical guard; v >= -epsilon
	}
	return v
}

// DF returns the degrees of freedom of the LRT: 2^K - 1 free haplotype
// frequencies minus K free allele frequencies.
func (r *Result) DF() int { return (1 << r.K) - 1 - r.K }

// PValue returns the asymptotic chi-square p-value of the LRT.
func (r *Result) PValue() float64 {
	df := r.DF()
	if df <= 0 {
		return 1
	}
	return stats.ChiSquareSurvival(r.LRT(), df)
}

// ExpectedCounts returns the estimated haplotype counts Freqs * 2N,
// the quantities the paper concatenates into CLUMP's contingency
// table.
func (r *Result) ExpectedCounts() []float64 {
	return r.ExpectedCountsInto(nil)
}

// ExpectedCountsInto is ExpectedCounts writing into dst (grown as
// needed), for callers on the allocation-free evaluation path.
func (r *Result) ExpectedCountsInto(dst []float64) []float64 {
	if cap(dst) < len(r.Freqs) {
		dst = make([]float64, len(r.Freqs))
	}
	dst = dst[:len(r.Freqs)]
	for i, f := range r.Freqs {
		dst[i] = f * 2 * float64(r.N)
	}
	return dst
}

// patternGroup is a distinct genotype pattern with its multiplicity.
type patternGroup struct {
	base  uint32 // haplotype bits fixed by homozygous-2 sites
	hets  uint32 // bitmask of heterozygous sites
	count float64
}

// ErrNoData is returned when no complete-case individual is available.
var ErrNoData = errors.New("ehdiall: no complete-case individuals")

// Estimate runs the EM on the given complete genotype patterns, each
// of length k with values 0, 1, 2 (no missing entries; use
// genotype.Dataset.ColumnPatterns to obtain complete cases). A k = 2
// call tallies its groups into the 3×3 genotype table and solves it
// exactly instead.
func Estimate(patterns [][]genotype.Genotype, k int, cfg Config) (*Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("ehdiall: k = %d, need at least 1 SNP", k)
	}
	if k > MaxSNPs {
		return nil, fmt.Errorf("ehdiall: k = %d exceeds MaxSNPs = %d", k, MaxSNPs)
	}
	cfg = cfg.withDefaults()

	groups, n, err := groupPatterns(patterns, k)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, ErrNoData
	}
	if k == 2 {
		t := tableFromGroups(groups)
		return estimateTwoLocus(&t, nil), nil
	}

	// H0 marginal allele-2 frequencies from the grouped patterns. The
	// per-site accumulators only ever add whole numbers, so the sums
	// are exact integers below 2^53 and the division matches the
	// packed path's integer-tally division bit for bit.
	p2 := make([]float64, k)
	for _, g := range groups {
		for j := 0; j < k; j++ {
			bit := uint32(1) << j
			switch {
			case g.base&bit != 0:
				p2[j] += 2 * g.count
			case g.hets&bit != 0:
				p2[j] += g.count
			}
		}
	}
	for j := range p2 {
		p2[j] /= 2 * float64(n)
	}
	return estimateCore(groups, n, k, p2, cfg, nil), nil
}

// estimateCore is the single copy of the EM arithmetic shared by the
// byte path (Estimate) and the packed path (EstimatePacked): H0 product
// frequencies, the compiled E-step plan and the EM ascent (plain steps,
// then SQUAREM cycles). It forms no log-likelihood: the Result keeps
// the plan, and its methods form them from it on demand. It runs for
// every k; the front-ends hand k = 2 calls to the exact two-locus
// solver instead. Both front-ends produce identical groups in
// identical order and identical p2 marginals, so sharing this code is
// what makes their Results bit-identical. With a nil scratch every
// buffer (and the Result) is freshly allocated; with a scratch the
// Result and its slices alias scratch storage and stay valid only
// until the scratch's next use.
func estimateCore(groups []patternGroup, n, k int, p2 []float64, cfg Config, scr *Scratch) *Result {
	res := newResult(k, n, scr)
	nullFreqs, freqs := res.NullFreqs, res.Freqs
	var (
		counts []float64
		plan   *estepPlan
		sq     *squaremBufs
	)
	if scr != nil {
		scr.counts = growFloats(scr.counts, len(freqs))
		counts = scr.counts
		plan, sq = &scr.plan, &scr.sq
	} else {
		counts = make([]float64, len(freqs))
		plan, sq = &estepPlan{}, &squaremBufs{}
	}
	plan.build(groups, k)
	res.plan = plan

	// EM from the H0 point: plain EM steps first, then, for a call
	// still short of Tol, SQUAREM cycles whose likelihood guard keeps
	// the ascent monotone, so LL1 >= LL0 and the report's LRT is
	// non-negative.
	h0Freqs(p2, nullFreqs)
	copy(freqs, nullFreqs)
	res.Iterations, res.Converged = plainEM(plan, n, freqs, counts, cfg.Tol, min(squaremAfter, cfg.MaxIter))
	if !res.Converged && res.Iterations < cfg.MaxIter {
		res.Iterations, res.Converged = squarem(plan, n, freqs, counts, cfg, res.Iterations, sq)
	}
	return res
}

// newResult returns the Result of a k-site estimation over n
// individuals with 2^k-entry Freqs and NullFreqs, in scr's storage when
// scr is non-nil and freshly allocated otherwise.
func newResult(k, n int, scr *Scratch) *Result {
	size := 1 << k
	if scr == nil {
		return &Result{K: k, N: n, Freqs: make([]float64, size), NullFreqs: make([]float64, size)}
	}
	scr.freqs = growFloats(scr.freqs, size)
	scr.nullFreqs = growFloats(scr.nullFreqs, size)
	scr.res = Result{K: k, N: n, Freqs: scr.freqs, NullFreqs: scr.nullFreqs}
	return &scr.res
}

// h0Freqs writes the H0 haplotype frequencies, products of the
// single-site allele-2 frequencies p2, into dst (2^len(p2) entries).
func h0Freqs(p2, dst []float64) {
	for h := range dst {
		f := 1.0
		for j, p := range p2 {
			if h&(1<<j) != 0 {
				f *= p
			} else {
				f *= 1 - p
			}
		}
		dst[h] = f
	}
}

// plainEM runs plain EM steps on freqs in place until one changes the
// frequencies by less than tol in L1 or limit steps have run. It
// returns the step count and whether tol was met. Production calls it
// with limit squaremAfter; tests call it with MaxIter, as the oracle
// the accelerated estimator is measured against.
func plainEM(plan *estepPlan, n int, freqs, counts []float64, tol float64, limit int) (int, bool) {
	for iter := 1; iter <= limit; iter++ {
		if delta, _ := emStep(plan, n, freqs, freqs, counts, false); delta < tol {
			return iter, true
		}
	}
	return limit, false
}

// emStep is one EM step from f: the compiled E-step plan distributes
// every pattern over its compatible haplotype pairs into counts, the
// M-step writes the re-estimated frequencies into next, which may
// alias f. It returns the L1 change of the step and, when withLL is
// set, the log-likelihood at f, formed from the E-step's pattern
// probabilities in one accumulator, so it equals plan.logLik(f) bit
// for bit.
func emStep(plan *estepPlan, n int, f, next, counts []float64, withLL bool) (delta, ll float64) {
	if withLL {
		acc := newLLAcc()
		plan.eStep(f, counts, &acc)
		ll = acc.value()
	} else {
		plan.eStep(f, counts, nil)
	}
	inv := 1 / (2 * float64(n))
	for i := range next {
		nf := counts[i] * inv
		delta += math.Abs(nf - f[i])
		next[i] = nf
	}
	return delta, ll
}

// growFloats resizes buf to n entries, reusing its storage when it
// fits. Contents are unspecified; callers overwrite every entry.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// EstimateDataset is a convenience wrapper: it extracts complete-case
// patterns for the given individual rows at the given sorted SNP
// sites, then runs Estimate.
func EstimateDataset(d *genotype.Dataset, rows []int, sites []int, cfg Config) (*Result, error) {
	pats := d.ColumnPatterns(rows, sites)
	return Estimate(pats, len(sites), cfg)
}

func groupPatterns(patterns [][]genotype.Genotype, k int) ([]patternGroup, int, error) {
	type key struct{ base, hets uint32 }
	idx := make(map[key]int)
	var groups []patternGroup
	n := 0
	for pi, pat := range patterns {
		if len(pat) != k {
			return nil, 0, fmt.Errorf("ehdiall: pattern %d has length %d, want %d", pi, len(pat), k)
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
				return nil, 0, fmt.Errorf("ehdiall: pattern %d has invalid genotype %d at site %d", pi, g, j)
			}
		}
		n++
		kk := key{base, hets}
		if gi, ok := idx[kk]; ok {
			groups[gi].count++
			continue
		}
		idx[kk] = len(groups)
		groups = append(groups, patternGroup{base: base, hets: hets, count: 1})
	}
	return groups, n, nil
}

// splitHets splits a heterozygous mask into its highest bit top and the
// rest low. The subsets s of low enumerate each unordered compatible
// pair exactly once, as {base|s, base|top|(low^s)}.
func splitHets(hets uint32) (top, low uint32) {
	top = uint32(1) << (31 - bits.LeadingZeros32(hets))
	return top, hets &^ top
}
