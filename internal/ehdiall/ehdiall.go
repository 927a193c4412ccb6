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
// exactly as EH-DIALL reports them.
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
	// LogLik and NullLogLik are the sample log-likelihoods under the
	// two hypotheses.
	LogLik     float64
	NullLogLik float64
	// Iterations is the number of E-steps performed, those inside
	// extrapolation cycles included; Converged reports whether a plain
	// EM step met the tolerance within MaxIter E-steps.
	Iterations int
	Converged  bool
}

// LRT returns the likelihood-ratio test statistic 2(LL1 - LL0). It is
// non-negative because the EM starts from the H0 frequencies and its
// likelihood never falls: plain EM steps ascend, and the monotone
// guard rejects any extrapolation below the plain steps it replaces.
func (r *Result) LRT() float64 {
	v := 2 * (r.LogLik - r.NullLogLik)
	if v < 0 {
		return 0 // numerical guard; ascent guarantees v >= -epsilon
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
// genotype.Dataset.ColumnPatterns to obtain complete cases).
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

// estimateCore is the single copy of the estimation arithmetic shared
// by the byte path (Estimate) and the packed path (EstimatePacked):
// H0 product frequencies, the compiled E-step plan, null
// log-likelihood, the EM ascent (plain steps, then SQUAREM cycles) and
// the H1 log-likelihood. Both front-ends produce identical groups in
// identical order and identical p2 marginals, so sharing this code is
// what makes their Results bit-identical. With a nil scratch every
// buffer (and the Result) is freshly allocated; with a scratch the
// Result and its slices alias scratch storage and stay valid only
// until the scratch's next use.
func estimateCore(groups []patternGroup, n, k int, p2 []float64, cfg Config, scr *Scratch) *Result {
	size := 1 << k
	var res *Result
	var nullFreqs, freqs, counts []float64
	plan, sq := &estepPlan{}, &squaremBufs{}
	if scr != nil {
		scr.res = Result{K: k, N: n}
		res = &scr.res
		scr.nullFreqs = growFloats(scr.nullFreqs, size)
		scr.freqs = growFloats(scr.freqs, size)
		scr.counts = growFloats(scr.counts, size)
		nullFreqs, freqs, counts = scr.nullFreqs, scr.freqs, scr.counts
		plan, sq = &scr.plan, &scr.sq
	} else {
		res = &Result{K: k, N: n}
		nullFreqs = make([]float64, size)
		freqs = make([]float64, size)
		counts = make([]float64, size)
	}
	plan.build(groups, k)

	h0Freqs(p2, nullFreqs)
	res.NullFreqs = nullFreqs
	res.NullLogLik = plan.logLik(nullFreqs)

	// EM from the H0 point: plain EM steps first, then, for a call
	// still short of Tol, SQUAREM cycles whose likelihood guard keeps
	// the ascent monotone, so LL1 >= LL0 and hence LRT >= 0, the
	// invariant the GA's fitness relies on.
	copy(freqs, nullFreqs)
	res.Iterations, res.Converged = plainEM(plan, n, freqs, counts, cfg.Tol, min(squaremAfter, cfg.MaxIter))
	if !res.Converged && res.Iterations < cfg.MaxIter {
		res.Iterations, res.Converged = squarem(plan, n, freqs, counts, cfg, res.Iterations, sq)
	}
	res.Freqs = freqs
	res.LogLik = plan.logLik(freqs)
	return res
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

// patternProb returns the HWE probability of the genotype pattern
// under haplotype frequencies f: the sum over unordered compatible
// pairs {h1, h2} of f(h1)*f(h2), doubled for h1 != h2 (the HWE 2*f1*f2
// factor). A homozygous pattern has the one pair {base, base}; with at
// least one heterozygous site every pair is heterozygous, so the
// probability is 2 x the half sum over the 2^(h-1) unordered pairs.
// It is the definition Phase uses; the compiled E-step (estepPlan)
// forms the same values bit for bit without re-deriving the pairs.
func patternProb(g patternGroup, f []float64) float64 {
	if g.hets&(g.hets-1) == 0 {
		return onePairProb(g, f)
	}
	return multiPairProb(g, f)
}

// onePairProb is patternProb for zero or one heterozygous site, where
// the pattern has the single pair {base, base|hets}.
func onePairProb(g patternGroup, f []float64) float64 {
	p := f[g.base] * f[g.base|g.hets]
	if g.hets != 0 {
		p *= 2
	}
	return p
}

// splitHets splits a heterozygous mask into its highest bit top and the
// rest low. The subsets s of low enumerate each unordered compatible
// pair exactly once, as {base|s, base|top|(low^s)}.
func splitHets(hets uint32) (top, low uint32) {
	top = uint32(1) << (31 - bits.LeadingZeros32(hets))
	return top, hets &^ top
}

// multiPairProb is patternProb for two or more heterozygous sites. The
// 2^(h-1) subsets of low are an even number, so two accumulators take
// them in turn.
func multiPairProb(g patternGroup, f []float64) float64 {
	top, low := splitHets(g.hets)
	hi := g.base | top
	var p0, p1 float64
	s := low
	for {
		p0 += f[g.base|s] * f[hi|(low^s)]
		s = (s - 1) & low
		p1 += f[g.base|s] * f[hi|(low^s)]
		if s == 0 {
			break
		}
		s = (s - 1) & low
	}
	return 2 * (p0 + p1)
}
