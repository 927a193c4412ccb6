package ehdiall

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// orderedPatternProb is the reference pattern probability: the sum of
// f(h1)*f(h2) over all ordered compatible pairs, which counts every
// heterozygous pair twice, exactly the HWE 2*f1*f2 factor. Summing
// each unordered pair once is patternProb's optimisation; this
// direct form is its oracle.
func orderedPatternProb(g patternGroup, f []float64) float64 {
	if g.hets == 0 {
		v := f[g.base]
		return v * v
	}
	p := 0.0
	s := g.hets
	for {
		p += f[g.base|s] * f[g.base|(g.hets^s)]
		if s == 0 {
			break
		}
		s = (s - 1) & g.hets
	}
	return p
}

// orderedExpectStep is the reference E-step over ordered pairs, one
// division per pair: the oracle of expectStep.
func orderedExpectStep(g patternGroup, f, counts []float64) float64 {
	if g.hets == 0 {
		counts[g.base] += 2 * g.count
		v := f[g.base]
		return v * v
	}
	total := orderedPatternProb(g, f)
	if total <= 0 {
		w := g.count / float64(uint32(1)<<bits.OnesCount32(g.hets))
		s := g.hets
		for {
			counts[g.base|s] += w
			counts[g.base|(g.hets^s)] += w
			if s == 0 {
				break
			}
			s = (s - 1) & g.hets
		}
		return total
	}
	s := g.hets
	for {
		w := g.count * f[g.base|s] * f[g.base|(g.hets^s)] / total
		counts[g.base|s] += w
		counts[g.base|(g.hets^s)] += w
		if s == 0 {
			break
		}
		s = (s - 1) & g.hets
	}
	return total
}

// orderedPlainEstimate is plainEstimate on the reference E-step: the
// plain EM from the H0 point for at most limit steps, with the final
// log-likelihood formed from orderedPatternProb.
func orderedPlainEstimate(c corpusCase, tol float64, limit int) (ll float64, steps int, converged bool) {
	freqs := make([]float64, 1<<c.k)
	counts := make([]float64, len(freqs))
	h0Freqs(c.p2, freqs)
	inv := 1 / (2 * float64(c.n))
	for steps = 1; steps <= limit; steps++ {
		clear(counts)
		for _, g := range c.groups {
			orderedExpectStep(g, freqs, counts)
		}
		delta := 0.0
		for i := range freqs {
			nf := counts[i] * inv
			delta += math.Abs(nf - freqs[i])
			freqs[i] = nf
		}
		if delta < tol {
			converged = true
			break
		}
	}
	steps = min(steps, limit)
	for _, g := range c.groups {
		ll += groupLogLik(g, orderedPatternProb(g, freqs))
	}
	return ll, steps, converged
}

// TestCorpusUnorderedEStep is the differential test of the E-step
// kernel on the fixed corpus: the plain EM run to MaxIter on the
// unordered-pair kernel and on the ordered-pair reference must end on
// log-likelihoods within 1e-12 relative on every call.
func TestCorpusUnorderedEStep(t *testing.T) {
	cfg := Config{}.withDefaults()
	plain := paperCorpusPlain(t)
	sameSteps, worst := 0, 0.0
	for i, c := range paperCorpus(t) {
		refLL, refSteps, _ := orderedPlainEstimate(c, cfg.Tol, cfg.MaxIter)
		rel := math.Abs(plain[i].ll-refLL) / math.Abs(refLL)
		worst = max(worst, rel)
		if rel > 1e-12 {
			t.Errorf("case %d (k=%d n=%d): unordered-pair EM LL %v, ordered-pair %v: %.3g relative",
				i, c.k, c.n, plain[i].ll, refLL, rel)
		}
		if plain[i].steps == refSteps {
			sameSteps++
		}
	}
	t.Logf("%d calls: largest LL difference %.3g relative, %d with identical step counts",
		len(paperCorpus(t)), worst, sameSteps)
}

// fuzzGroups deterministically builds an E-step input from the fuzz
// parameters: k of 1-8 sites, 1-16 pattern groups with disjoint base
// and hets masks and whole-number counts, and frequencies with about
// zeroPct percent zeros and a quarter of the rest spread over some 130
// decades. Every compatible haplotype of the first group is zeroed, so
// its pattern probability is 0 and the E-step takes the uniform spread.
func fuzzGroups(seed int64, kb, ng, zeroPct uint8) (groups []patternGroup, f []float64) {
	rng := rand.New(rand.NewSource(seed))
	k := 1 + int(kb)%8
	size := 1 << k
	f = make([]float64, size)
	for i := range f {
		if rng.Intn(100) < int(zeroPct)%100 {
			continue
		}
		f[i] = rng.Float64()
		if rng.Intn(4) == 0 {
			// Down to 2^-440: after normalisation every product of two
			// nonzero frequencies is still a normal float.
			f[i] = math.Ldexp(f[i], -rng.Intn(441))
		}
	}
	groups = make([]patternGroup, 1+int(ng)%16)
	for i := range groups {
		hets := uint32(rng.Intn(size))
		groups[i] = patternGroup{
			base:  uint32(rng.Intn(size)) &^ hets,
			hets:  hets,
			count: float64(1 + rng.Intn(50)),
		}
	}
	g := groups[0]
	for s := g.hets; ; s = (s - 1) & g.hets {
		f[g.base|s] = 0
		if s == 0 {
			break
		}
	}
	sum := 0.0
	for _, v := range f {
		sum += v
	}
	if sum > 0 {
		for i := range f {
			f[i] /= sum
		}
	}
	return groups, f
}

// FuzzExpectStep is the differential test of the unordered-pair E-step
// against the ordered-pair reference, one pattern group at a time from
// zero counts. Pattern probabilities agree within 1e-14 relative, and
// expectStep returns exactly patternProb's value. Expected counts agree
// within 1e-14 relative on entries above 1e-12 of the group's mass
// 2*count, and within the same absolute bound below that, where tiny
// entries may differ relatively. A group with
// probability 0 spreads exactly the reference's counts.
func FuzzExpectStep(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(4), uint8(0))
	f.Add(int64(2), uint8(3), uint8(15), uint8(30))
	f.Add(int64(3), uint8(7), uint8(9), uint8(60))
	f.Add(int64(4), uint8(0), uint8(2), uint8(90))
	f.Fuzz(func(t *testing.T, seed int64, kb, ng, zeroPct uint8) {
		groups, freqs := fuzzGroups(seed, kb, ng, zeroPct)
		got := make([]float64, len(freqs))
		want := make([]float64, len(freqs))
		for gi, g := range groups {
			clear(got)
			clear(want)
			p := expectStep(g, freqs, got)
			refP := orderedExpectStep(g, freqs, want)
			if pp := patternProb(g, freqs); math.Float64bits(p) != math.Float64bits(pp) {
				t.Fatalf("group %d %+v: expectStep returns %v, patternProb %v", gi, g, p, pp)
			}
			if math.Abs(p-refP) > 1e-14*math.Abs(refP) {
				t.Fatalf("group %d %+v: pattern probability %v, reference %v", gi, g, p, refP)
			}
			mass := 2 * g.count
			for h := range got {
				if refP <= 0 && g.hets != 0 {
					if got[h] != want[h] {
						t.Fatalf("group %d %+v: spread count[%d] = %v, reference %v", gi, g, h, got[h], want[h])
					}
					continue
				}
				if tol := 1e-14 * max(math.Abs(got[h]), math.Abs(want[h]), 1e-12*mass); math.Abs(got[h]-want[h]) > tol {
					t.Fatalf("group %d %+v: count[%d] = %v, reference %v", gi, g, h, got[h], want[h])
				}
			}
		}
	})
}

// TestExpectStepSubnormalPattern: a pattern whose probability is so
// deep in the subnormal range that 2*count/total overflows is spread
// uniformly like a pattern of probability 0, not turned into Inf or
// NaN counts.
func TestExpectStepSubnormalPattern(t *testing.T) {
	g := patternGroup{base: 0, hets: 0b11, count: 3}
	f := []float64{1e-160, 1e-160, 1e-160, 1e-160}
	counts := make([]float64, 4)
	if p := expectStep(g, f, counts); !(p > 0) || !math.IsInf(2*g.count/p, 1) {
		t.Fatalf("pattern probability %v does not overflow the scale", p)
	}
	for h, c := range counts {
		if c != 1.5 {
			t.Errorf("count[%d] = %v, want the uniform spread 2*3/4", h, c)
		}
	}
}
