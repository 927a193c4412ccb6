package ehdiall

import (
	"math"
	"sync"
	"testing"

	"repro/internal/genotype"
	"repro/internal/popgen"
	"repro/internal/rng"
)

// corpusCase is one EM call of the fixed paper-shaped corpus: the
// grouped complete-case patterns and H0 marginals estimateCore starts
// from, and the packed columns and row mask they were grouped from.
type corpusCase struct {
	groups []patternGroup
	n, k   int
	p2     []float64
	cols   []genotype.PackedColumn
	mask   genotype.PlaneMask
}

const (
	corpusSeeds   = 8   // popgen.Paper249 datasets, seeds 1..corpusSeeds
	corpusPerSeed = 500 // candidates drawn per dataset
	corpusWindow  = 24  // width of the local half's SNP windows
)

var (
	corpusOnce  sync.Once
	corpusCases []corpusCase
)

// paperCorpus returns 4,000 EM calls shaped like the GA's on the
// paper's 249-SNP data: from popgen.Paper249 seeds 1-8, alternating the
// affected and unaffected rows, k cycling through 2-6, and every other
// candidate's sites drawn inside one 24-SNP window (strong linkage, the
// slow calls) rather than over all 249 SNPs. Sites and windows come
// from a seeded internal/rng stream, so the corpus is fixed.
func paperCorpus(tb testing.TB) []corpusCase {
	tb.Helper()
	corpusOnce.Do(func() {
		for seed := uint64(1); seed <= corpusSeeds; seed++ {
			d, err := popgen.Generate(popgen.Paper249(seed))
			if err != nil {
				tb.Fatalf("seed %d: %v", seed, err)
			}
			packed := genotype.PackDataset(d)
			masks := []genotype.PlaneMask{
				genotype.NewPlaneMask(d.NumIndividuals(), d.ByStatus(genotype.Affected)),
				genotype.NewPlaneMask(d.NumIndividuals(), d.ByStatus(genotype.Unaffected)),
			}
			r := rng.New(1000 + seed)
			for i := 0; i < corpusPerSeed; i++ {
				k := 2 + i%5
				var sites []int
				if i%2 == 0 {
					sites = r.Sample(d.NumSNPs(), k)
				} else {
					lo := r.Intn(d.NumSNPs() - corpusWindow + 1)
					sites = r.Sample(corpusWindow, k)
					for j := range sites {
						sites[j] += lo
					}
				}
				genotype.SortSites(sites)
				cols := make([]genotype.PackedColumn, k)
				for j, s := range sites {
					cols[j] = packed.Col(s)
				}
				var scr Scratch
				mask := masks[(i/2)%2]
				groups, n := groupPacked(cols, mask, &scr)
				if n == 0 {
					continue
				}
				p2 := make([]float64, k)
				for j := range p2 {
					p2[j] = float64(scr.count2[j]) / (2 * float64(n))
				}
				corpusCases = append(corpusCases, corpusCase{groups: groups, n: n, k: k, p2: p2, cols: cols, mask: mask})
			}
		}
	})
	return corpusCases
}

// plainEstimate is the oracle: the plain EM alone, from the same H0
// point as estimateCore, for at most limit steps. It returns the final
// log-likelihood, the E-step count and whether tol was met.
func plainEstimate(c corpusCase, tol float64, limit int) (ll float64, steps int, converged bool) {
	var plan estepPlan
	plan.build(c.groups, c.k)
	freqs := make([]float64, 1<<c.k)
	h0Freqs(c.p2, freqs)
	steps, converged = plainEM(&plan, c.n, freqs, make([]float64, len(freqs)), tol, limit)
	return plan.logLik(freqs), steps, converged
}

// plainOutcome is the oracle's result on one corpus call.
type plainOutcome struct {
	ll        float64
	steps     int
	converged bool
}

var (
	plainOnce     sync.Once
	plainOutcomes []plainOutcome
)

// paperCorpusPlain returns the oracle's outcome on every corpus call at
// the default Config, computed once for the tests that share it.
func paperCorpusPlain(tb testing.TB) []plainOutcome {
	corpus := paperCorpus(tb)
	plainOnce.Do(func() {
		cfg := Config{}.withDefaults()
		for _, c := range corpus {
			ll, steps, conv := plainEstimate(c, cfg.Tol, cfg.MaxIter)
			plainOutcomes = append(plainOutcomes, plainOutcome{ll, steps, conv})
		}
	})
	return plainOutcomes
}

// TestCorpusEStepGate is the deterministic gate on the acceleration:
// over the fixed corpus, the hybrid estimator must take at most 0.6x
// the plain EM's E-steps per call and leave at most 0.1x its calls
// unconverged. Step counts are exact, so no noise band is needed.
func TestCorpusEStepGate(t *testing.T) {
	cfg := Config{}.withDefaults()
	var scr Scratch
	var plainSteps, fastSteps, plainNonconv, fastNonconv int
	plain := paperCorpusPlain(t)
	for i, c := range paperCorpus(t) {
		plainSteps += plain[i].steps
		if !plain[i].converged {
			plainNonconv++
		}
		res := estimateCore(c.groups, c.n, c.k, c.p2, cfg, &scr)
		fastSteps += res.Iterations
		if !res.Converged {
			fastNonconv++
		}
	}
	calls := float64(len(paperCorpus(t)))
	t.Logf("%d calls: E-steps/call plain %.1f, hybrid %.1f (%.2fx); non-converged plain %d, hybrid %d",
		len(paperCorpus(t)), float64(plainSteps)/calls, float64(fastSteps)/calls,
		float64(fastSteps)/float64(plainSteps), plainNonconv, fastNonconv)
	if 10*fastSteps > 6*plainSteps {
		t.Errorf("hybrid takes %d E-steps, plain %d: want at most 0.6x", fastSteps, plainSteps)
	}
	if 10*fastNonconv > plainNonconv {
		t.Errorf("hybrid leaves %d calls unconverged, plain %d: want at most 0.1x", fastNonconv, plainNonconv)
	}
}

// fidelityExceptions lists the corpus indexes where the hybrid ends
// more than 1e-9 relative below the plain EM's log-likelihood. Each is
// admitted only while the plain EM itself stops at least 1e-4 short of
// a 200,000-step reference: a flat ridge, where both estimators stop on
// Tol before the maximum and the difference is where each one stalled.
var fidelityExceptions = map[int]bool{}

// TestCorpusFidelity is the differential test against the plain EM:
// over the fixed corpus the hybrid's log-likelihood is never below the
// plain EM's by more than 1e-9 relative, except at the listed indexes.
// Calls that converge within squaremAfter steps must match the plain
// EM bit for bit.
func TestCorpusFidelity(t *testing.T) {
	cfg := Config{}.withDefaults()
	var scr Scratch
	identical := 0
	plain := paperCorpusPlain(t)
	for i, c := range paperCorpus(t) {
		plainLL, plainSteps := plain[i].ll, plain[i].steps
		res := estimateCore(c.groups, c.n, c.k, c.p2, cfg, &scr)
		if plainSteps <= squaremAfter && (res.LogLik != plainLL || res.Iterations != plainSteps) {
			t.Errorf("case %d: plain EM converges in %d steps, but the hybrid gives %d steps, LL %v vs %v",
				i, plainSteps, res.Iterations, res.LogLik, plainLL)
		}
		if res.LogLik == plainLL {
			identical++
		}
		short := (plainLL - res.LogLik) / math.Abs(plainLL)
		if short <= 1e-9 {
			if fidelityExceptions[i] {
				t.Errorf("case %d is listed as an exception but the hybrid is within 1e-9 of the plain EM", i)
			}
			continue
		}
		if !fidelityExceptions[i] {
			t.Errorf("case %d (k=%d n=%d): hybrid LL %v is %.3g relative below plain %v",
				i, c.k, c.n, res.LogLik, short, plainLL)
			continue
		}
		refLL, _, _ := plainEstimate(c, 0, 200000)
		if refLL-plainLL < 1e-4 {
			t.Errorf("case %d: plain EM is only %.3g below the 200k-step reference; the exception does not hold",
				i, refLL-plainLL)
		}
		t.Logf("case %d (k=%d n=%d): plain %.6g and hybrid %.6g below the 200k-step reference",
			i, c.k, c.n, refLL-plainLL, refLL-res.LogLik)
	}
	t.Logf("%d of %d calls bit-identical to the plain EM", identical, len(paperCorpus(t)))
}

// TestSquaremNeverDescends checks the likelihood guard: cut off at any
// E-step budget past the switch to extrapolation, an estimation must
// end no lower than the point where the plain EM stopped. An unguarded
// extrapolation can overshoot into a lower-likelihood point and fails
// this. It runs the first 60 corpus calls that reach the switch, over
// budgets of up to 200 E-steps, at the default Tol and at a Tol no
// step meets, which drives the cycles into rounding noise: there the
// step length grows without bound and only a proposal rescaled to sum
// to 1 keeps the guard honest. 1e-12 relative absorbs the rounding of
// a plain step at convergence.
func TestSquaremNeverDescends(t *testing.T) {
	slow := 0
	for i, c := range paperCorpus(t) {
		start := estimateCore(c.groups, c.n, c.k, c.p2, Config{MaxIter: squaremAfter}.withDefaults(), nil)
		if start.Converged {
			continue
		}
		if slow++; slow > 60 {
			break
		}
		floor := start.LogLik - 1e-12*math.Abs(start.LogLik)
		for _, tol := range []float64{Config{}.withDefaults().Tol, math.SmallestNonzeroFloat64} {
			for budget := squaremAfter + 1; budget <= 200; budget++ {
				res := estimateCore(c.groups, c.n, c.k, c.p2, Config{Tol: tol, MaxIter: budget}, nil)
				if res.LogLik < floor {
					t.Errorf("case %d, Tol %g: cut at %d E-steps, LL %v is below %v at the switch to extrapolation",
						i, tol, budget, res.LogLik, start.LogLik)
					break
				}
				if res.Converged {
					break
				}
			}
		}
	}
}

// TestSquaremAllocFree pins the extrapolation path at zero allocations
// with a warm Scratch: its vectors live in the scratch like the plain
// EM's.
func TestSquaremAllocFree(t *testing.T) {
	cfg := Config{}.withDefaults()
	var slow []corpusCase
	plain := paperCorpusPlain(t)
	for i, c := range paperCorpus(t) {
		if plain[i].steps > squaremAfter {
			slow = append(slow, c)
		}
		if len(slow) == 5 {
			break
		}
	}
	if len(slow) == 0 {
		t.Fatal("corpus has no call that reaches the extrapolation path")
	}
	var scr Scratch
	run := func() {
		for _, c := range slow {
			estimateCore(c.groups, c.n, c.k, c.p2, cfg, &scr)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("estimateCore allocates %.1f per run on the extrapolation path, want 0", allocs)
	}
}

// BenchmarkEstimateCorpus249 runs estimateCore over the fixed
// paper-shaped corpus, one op being the whole corpus. Unlike the
// independent random genotypes of BenchmarkEstimateK*, which converge
// within a few steps, it has the linkage that makes EM steps the cost,
// and reports E-steps per call, non-converged calls per op and the
// wall time per E-step (the calls' likelihood passes included), which
// is the kernel's cost apart from the step count.
func BenchmarkEstimateCorpus249(b *testing.B) {
	corpus := paperCorpus(b)
	cfg := Config{}.withDefaults()
	var scr Scratch
	var steps, nonconv int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range corpus {
			res := estimateCore(c.groups, c.n, c.k, c.p2, cfg, &scr)
			steps += res.Iterations
			if !res.Converged {
				nonconv++
			}
		}
	}
	b.ReportMetric(float64(steps)/float64(b.N*len(corpus)), "esteps/call")
	b.ReportMetric(float64(nonconv)/float64(b.N), "nonconv/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/estep")
}
