package ehdiall

import (
	"math"
	"math/rand"
	"testing"
)

// TestLogLikCorpus holds the one-log accumulator to its definition on
// the fixed corpus: at the H0 point and at the final point of every
// call, the log-likelihood estimateCore reports is within 1e-13
// relative of Σ count·log p with one logarithm per pattern.
func TestLogLikCorpus(t *testing.T) {
	cfg := Config{}.withDefaults()
	var scr Scratch
	worst := 0.0
	for i, c := range paperCorpus(t) {
		res := estimateCore(c.groups, c.n, c.k, c.p2, cfg, &scr)
		for _, pt := range []struct {
			name string
			ll   float64
			f    []float64
		}{{"H0", res.NullLogLik, res.NullFreqs}, {"final", res.LogLik, res.Freqs}} {
			ref := sumLogLik(c.groups, pt.f, patternProb)
			rel := math.Abs(pt.ll-ref) / math.Abs(ref)
			worst = max(worst, rel)
			if rel > 1e-13 {
				t.Errorf("case %d (k=%d n=%d) %s: log-likelihood %v, one log per pattern %v: %.3g relative",
					i, c.k, c.n, pt.name, pt.ll, ref, rel)
			}
		}
	}
	t.Logf("%d calls: largest difference %.3g relative", len(paperCorpus(t)), worst)
}

// accLogLik runs the accumulator over (probability, count) terms.
func accLogLik(terms [][2]float64) float64 {
	acc := newLLAcc()
	for _, tm := range terms {
		acc.add(tm[0], tm[1])
	}
	return acc.value()
}

// TestLogLikAccumulatorEdges covers the accumulator's separate paths:
// the zero-probability penalty, subnormal probabilities, counts on
// either side of llMulMax, and long products that rescale many times.
// Every result must be finite.
func TestLogLikAccumulatorEdges(t *testing.T) {
	near := func(name string, got, want float64) {
		t.Helper()
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("%s: log-likelihood %v is not finite", name, got)
		}
		if math.Abs(got-want) > 1e-13*math.Abs(want) {
			t.Errorf("%s: log-likelihood %v, want %v (%.3g relative)", name, got, want, math.Abs(got-want)/math.Abs(want))
		}
	}
	exact := func(name string, got, want float64) {
		t.Helper()
		if got != want {
			t.Errorf("%s: log-likelihood %v, want exactly %v", name, got, want)
		}
	}

	exact("p = 0", accLogLik([][2]float64{{0, 7}}), -745*7)
	exact("p = 0 above the cutoff", accLogLik([][2]float64{{0, 1000}}), -745*1000)
	near("p = 0 among others", accLogLik([][2]float64{{0.25, 3}, {0, 2}, {0.5, 1}}),
		3*math.Log(0.25)-745*2+math.Log(0.5))

	for _, count := range []float64{1, 3, llMulMax, llMulMax + 1, 500} {
		near("subnormal p", accLogLik([][2]float64{{1e-310, count}}), count*refLog(1e-310))
		near("smallest p", accLogLik([][2]float64{{math.SmallestNonzeroFloat64, count}}),
			count*refLog(math.SmallestNonzeroFloat64))
		near("p just below the split", accLogLik([][2]float64{{llSplit * 0.999, count}, {0.3, 2}}),
			count*math.Log(llSplit*0.999)+2*math.Log(0.3))
	}
	// Above the cutoff the term is count·log p itself.
	exact("count above the cutoff", accLogLik([][2]float64{{0.3, llMulMax + 1}}), (llMulMax+1)*math.Log(0.3))
	near("count at the cutoff", accLogLik([][2]float64{{0.3, llMulMax}}), llMulMax*math.Log(0.3))
	exact("p = 1", accLogLik([][2]float64{{1, 5}}), 0)

	// 10,000 factors, each pulling the product down by up to 2^-100:
	// it crosses llFloor and is rescaled many times over.
	rng := rand.New(rand.NewSource(1))
	terms := make([][2]float64, 10000)
	want := 0.0
	for i := range terms {
		p := math.Ldexp(0.5+rng.Float64()/2, -rng.Intn(100))
		count := float64(1 + rng.Intn(int(llMulMax)))
		terms[i] = [2]float64{p, count}
		want += count * math.Log(p)
	}
	acc := newLLAcc()
	for _, tm := range terms {
		acc.add(tm[0], tm[1])
	}
	if acc.exp > -100*llShift {
		t.Errorf("the product was rescaled only to 2^%d; the test does not exercise rescaling", acc.exp)
	}
	near("10,000 factors", acc.value(), want)

	// Whatever the mix, the result is finite.
	for trial := 0; trial < 200; trial++ {
		var terms [][2]float64
		for i := 0; i < 1+rng.Intn(300); i++ {
			var p float64
			switch rng.Intn(5) {
			case 0:
				p = 0
			case 1:
				p = math.Float64frombits(1 + uint64(rng.Int63n(1<<52))) // subnormal
			case 2:
				p = 1
			default:
				p = math.Ldexp(rng.Float64(), -rng.Intn(1000))
			}
			terms = append(terms, [2]float64{p, float64(1 + rng.Intn(40))})
		}
		if ll := accLogLik(terms); math.IsInf(ll, 0) || math.IsNaN(ll) {
			t.Fatalf("trial %d: log-likelihood %v is not finite", trial, ll)
		}
	}
}
