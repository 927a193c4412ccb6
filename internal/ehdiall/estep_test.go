package ehdiall

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// patternProb returns the HWE probability of the genotype pattern
// under haplotype frequencies f: the sum over unordered compatible
// pairs {h1, h2} of f(h1)*f(h2), doubled for h1 != h2 (the HWE 2*f1*f2
// factor). A homozygous pattern has the one pair {base, base}; with at
// least one heterozygous site every pair is heterozygous, so the
// probability is 2 x the half sum over the 2^(h-1) unordered pairs.
// The compiled E-step (estepPlan) forms the same values bit for bit
// without re-deriving the pairs; FuzzExpectStep holds it to this
// definition.
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

// orderedExpectStep is the reference E-step of one pattern group over
// ordered pairs, one division per pair: summed over the groups, the
// oracle of the compiled E-step (estepPlan).
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
	return sumLogLik(c.groups, freqs, orderedPatternProb), steps, converged
}

// sumLogLik is the reference log-likelihood Σ count·log p over the
// groups, one logarithm per pattern, with the penalty of -745·count
// for a pattern of probability 0: the definition llAcc is held to.
func sumLogLik(groups []patternGroup, f []float64, prob func(patternGroup, []float64) float64) float64 {
	ll := 0.0
	for _, g := range groups {
		if p := prob(g, f); p > 0 {
			ll += g.count * refLog(p)
		} else {
			ll += g.count * -745
		}
	}
	return ll
}

// refLog is math.Log, with a subnormal argument's exponent taken apart
// first: on amd64 math.Log(1e-310) gives -709.09 instead of -713.80.
func refLog(p float64) float64 {
	if p >= 0x1p-1022 {
		return math.Log(p)
	}
	frac, e := math.Frexp(p)
	return math.Log(frac) + float64(e)*math.Ln2
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

// planProbs returns the pattern probabilities the compiled plan forms
// under f, in group order: the single-pair patterns' products and the
// multi-pair patterns' totals.
func planProbs(plan *estepPlan, groups []patternGroup, f []float64) []float64 {
	probs := make([]float64, len(groups))
	ones, multis := plan.ones, plan.multis
	for i, g := range groups {
		if g.hets&(g.hets-1) == 0 {
			o := ones[0]
			ones = ones[1:]
			probs[i] = f[o.x] * f[o.y] * o.mult
			continue
		}
		probs[i] = plan.total(multis[0], f)
		multis = multis[1:]
	}
	return probs
}

// requireCounts fails unless the plan's counts agree with the
// reference's within 1e-14 relative on entries above 1e-12 of the mass,
// and within the same absolute bound below that, where tiny entries may
// differ relatively.
func requireCounts(t *testing.T, tag string, got, want []float64, mass float64) {
	t.Helper()
	for h := range got {
		if tol := 1e-14 * max(math.Abs(got[h]), math.Abs(want[h]), 1e-12*mass); math.Abs(got[h]-want[h]) > tol {
			t.Fatalf("%s: count[%d] = %v, reference %v", tag, h, got[h], want[h])
		}
	}
}

// FuzzExpectStep is the differential test of the compiled E-step
// (estepPlan) against the ordered-pair reference. The plan is built
// from the fuzz groups and runs one E-step:
//   - every pattern probability it forms is patternProb's bit for bit,
//     and within 1e-14 relative of the ordered-pair sum;
//   - its fixed counts are exactly the single-pair patterns' copies;
//   - its counts agree with the reference summed over the groups, within
//     requireCounts' bounds of the total mass;
//   - one group at a time, a pattern of probability 0 spreads exactly
//     the reference's counts;
//   - the log-likelihood the step returns is the plan's logLik bit for
//     bit, and within 1e-13 of the one-log-per-pattern sum relative to
//     the sum of its terms' magnitudes.
func FuzzExpectStep(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(4), uint8(0))
	f.Add(int64(2), uint8(3), uint8(15), uint8(30))
	f.Add(int64(3), uint8(7), uint8(9), uint8(60))
	f.Add(int64(4), uint8(0), uint8(2), uint8(90))
	f.Fuzz(func(t *testing.T, seed int64, kb, ng, zeroPct uint8) {
		groups, freqs := fuzzGroups(seed, kb, ng, zeroPct)
		k := bits.Len(uint(len(freqs) - 1))
		var plan estepPlan
		plan.build(groups, k)

		mass, absLL := 0.0, 0.0
		wantFixed := make([]float64, len(freqs))
		for i, p := range planProbs(&plan, groups, freqs) {
			g := groups[i]
			mass += 2 * g.count
			if pp := patternProb(g, freqs); math.Float64bits(p) != math.Float64bits(pp) {
				t.Fatalf("group %d %+v: plan probability %v, patternProb %v", i, g, p, pp)
			}
			if refP := orderedPatternProb(g, freqs); math.Abs(p-refP) > 1e-14*math.Abs(refP) {
				t.Fatalf("group %d %+v: pattern probability %v, reference %v", i, g, p, refP)
			}
			if p > 0 {
				absLL += math.Abs(g.count * math.Log(p))
			} else {
				absLL += 745 * g.count
			}
			if g.hets&(g.hets-1) == 0 {
				wantFixed[g.base] += g.count
				wantFixed[g.base|g.hets] += g.count
			}
		}
		for h, c := range plan.fixed {
			if c != wantFixed[h] {
				t.Fatalf("fixed[%d] = %v, want %v", h, c, wantFixed[h])
			}
		}

		got := make([]float64, len(freqs))
		want := make([]float64, len(freqs))
		acc := newLLAcc()
		plan.eStep(freqs, got, &acc)
		for _, g := range groups {
			orderedExpectStep(g, freqs, want)
		}
		requireCounts(t, "whole E-step", got, want, mass)
		if ll, pl := acc.value(), plan.logLik(freqs); math.Float64bits(ll) != math.Float64bits(pl) {
			t.Fatalf("E-step log-likelihood %v, plan logLik %v", ll, pl)
		}
		if ll, ref := acc.value(), sumLogLik(groups, freqs, patternProb); math.Abs(ll-ref) > 1e-13*absLL {
			t.Fatalf("log-likelihood %v, one log per pattern %v", ll, ref)
		}

		for gi, g := range groups {
			var one estepPlan
			one.build([]patternGroup{g}, k)
			clear(got)
			clear(want)
			one.eStep(freqs, got, nil)
			if refP := orderedExpectStep(g, freqs, want); refP > 0 || g.hets == 0 {
				requireCounts(t, fmt.Sprintf("group %d %+v", gi, g), got, want, 2*g.count)
				continue
			}
			for h := range got {
				if got[h] != want[h] {
					t.Fatalf("group %d %+v: spread count[%d] = %v, reference %v", gi, g, h, got[h], want[h])
				}
			}
		}
	})
}

// TestExpectStepSubnormalPattern: a pattern whose probability is so
// deep in the subnormal range that 2*count/total overflows is spread
// uniformly by the compiled E-step like a pattern of probability 0, not
// turned into Inf or NaN counts.
func TestExpectStepSubnormalPattern(t *testing.T) {
	g := patternGroup{base: 0, hets: 0b11, count: 3}
	f := []float64{1e-160, 1e-160, 1e-160, 1e-160}
	var plan estepPlan
	plan.build([]patternGroup{g}, 2)
	if p := plan.total(plan.multis[0], f); !(p > 0) || !math.IsInf(2*g.count/p, 1) {
		t.Fatalf("pattern probability %v does not overflow the scale", p)
	}
	counts := make([]float64, 4)
	plan.eStep(f, counts, nil)
	for h, c := range counts {
		if c != 1.5 {
			t.Errorf("count[%d] = %v, want the uniform spread 2*3/4", h, c)
		}
	}
}
