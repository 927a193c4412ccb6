package ehdiall

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/genotype"
)

// groupsFromTable expands a genotype table into the pattern groups the
// EM runs on, one per non-empty cell.
func groupsFromTable(t *genoTable) []patternGroup {
	var groups []patternGroup
	for a := range 3 {
		for b := range 3 {
			if t[a][b] == 0 {
				continue
			}
			groups = append(groups, patternGroup{
				base:  uint32(a/2 | b/2<<1),
				hets:  uint32(a&1 | b&1<<1),
				count: float64(t[a][b]),
			})
		}
	}
	return groups
}

// plainTwoLocus runs the plain EM from the H0 point for limit steps
// with no tolerance and returns its final frequencies.
func plainTwoLocus(t *genoTable, limit int) []float64 {
	var s twoLocus
	s.init(t)
	var plan estepPlan
	plan.build(groupsFromTable(t), 2)
	freqs := make([]float64, 4)
	h0Freqs([]float64{s.pA, s.pB}, freqs)
	plainEM(&plan, s.n, freqs, make([]float64, 4), 0, limit)
	return freqs
}

// eagerLogLiks is the oracle of a k = 2 Result's log-likelihoods, the
// expressions an estimator that forms them on every call evaluates:
// the table's log-likelihoods under f and g in one joint pass, each
// cell's path through the accumulator decided by both probabilities.
// Such an estimator takes both from eagerLogLiks(cells, NullFreqs,
// Freqs), except when its maximum compared candidates: then LogLik
// comes from the lone pass eagerLogLiks(cells, Freqs, Freqs) and
// NullLogLik from eagerLogLiks(cells, NullFreqs, NullFreqs).
func eagerLogLiks(cells *tableCells, f, g []float64) (float64, float64) {
	var pf, pg [9]float64
	cellProbs(f, &pf)
	cellProbs(g, &pg)
	af, ag := newLLAcc(), newLLAcc()
	for i, c := range cells {
		a, b := pf[i], pg[i]
		if c <= llMulMax && a >= llSplit && b >= llSplit {
			af.mul(powSmall(a, c))
			ag.mul(powSmall(b, c))
			continue
		}
		af.add(a, c)
		ag.add(b, c)
	}
	return af.value(), ag.value()
}

// requireEagerLogLiks fails unless res's LogLik and NullLogLik equal,
// bit for bit, the values the eager estimator formed: for k = 2 both
// the joint and the lone passes of eagerLogLiks over the table, so
// whichever a call took; for any other k a fresh plan's logLik over
// the groups at NullFreqs and Freqs.
func requireEagerLogLiks(t *testing.T, tag string, groups []patternGroup, res *Result) {
	t.Helper()
	var null, ll []float64
	if res.K == 2 {
		tb := tableFromGroups(groups)
		var s twoLocus
		s.init(&tb)
		n, l := eagerLogLiks(&s.cells, res.NullFreqs, res.Freqs)
		n2, _ := eagerLogLiks(&s.cells, res.NullFreqs, res.NullFreqs)
		l2, _ := eagerLogLiks(&s.cells, res.Freqs, res.Freqs)
		null, ll = []float64{n, n2}, []float64{l, l2}
	} else {
		var plan estepPlan
		plan.build(groups, res.K)
		null, ll = []float64{plan.logLik(res.NullFreqs)}, []float64{plan.logLik(res.Freqs)}
	}
	for i := range null {
		if math.Float64bits(res.NullLogLik()) != math.Float64bits(null[i]) ||
			math.Float64bits(res.LogLik()) != math.Float64bits(ll[i]) {
			t.Fatalf("%s: NullLogLik/LogLik %v/%v, eager %v/%v", tag, res.NullLogLik(), res.LogLik(), null[i], ll[i])
		}
	}
}

// TestCorpusLogLiks checks LogLik and NullLogLik against the eager
// oracle on every call of the fixed corpus (k = 2 to 6), through both
// front-ends: the packed one on one shared Scratch, whose Result
// aliases it, and the byte one with fresh storage.
func TestCorpusLogLiks(t *testing.T) {
	var scr Scratch
	for i, c := range paperCorpus(t) {
		packed, err := EstimatePacked(c.cols, c.mask, Config{}, &scr)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		requireEagerLogLiks(t, fmt.Sprintf("case %d (k=%d) packed", i, c.k), c.groups, packed)
		byteRes, err := Estimate(corpusPatterns(c), c.k, Config{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		requireEagerLogLiks(t, fmt.Sprintf("case %d (k=%d) byte", i, c.k), c.groups, byteRes)
	}
}

// TestLogLiksConcurrent calls the log-likelihood methods of the same
// Results from several goroutines at once (run it under -race): they
// only read what the estimation left, for k = 2 the table and for
// k >= 3 the plan.
func TestLogLiksConcurrent(t *testing.T) {
	var results []*Result
	var want [][2]float64
	for _, c := range paperCorpus(t)[:5] {
		r, err := Estimate(corpusPatterns(c), c.k, Config{})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
		want = append(want, [2]float64{r.NullLogLik(), r.LogLik()})
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, r := range results {
				if got := [2]float64{r.NullLogLik(), r.LogLik()}; got != want[i] {
					t.Errorf("result %d (k=%d): NullLogLik/LogLik %v, want %v", i, r.K, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// corpusPatterns decodes a corpus call's complete-case rows into the
// byte path's genotype patterns.
func corpusPatterns(c corpusCase) [][]genotype.Genotype {
	var pats [][]genotype.Genotype
rows:
	for row := 0; row < c.mask.NumRows(); row++ {
		if c.mask.Word(row/genotype.WordGenotypes)>>(2*uint(row%genotype.WordGenotypes))&1 == 0 {
			continue
		}
		pat := make([]genotype.Genotype, len(c.cols))
		for j, col := range c.cols {
			if pat[j] = col.Get(row); pat[j] == genotype.Missing {
				continue rows
			}
		}
		pats = append(pats, pat)
	}
	return pats
}

// TestCorpusTwoLocus is the differential test of the exact estimator
// on the fixed corpus's k = 2 calls: the packed and byte front-ends
// give bit-identical Results, and no call ends more than 1e-9 relative
// below the plain EM run to MaxIter. A warm k = 2 EstimatePacked
// allocates nothing.
func TestCorpusTwoLocus(t *testing.T) {
	var scr Scratch
	plain := paperCorpusPlain(t)
	calls, above := 0, 0
	var last corpusCase
	for i, c := range paperCorpus(t) {
		if c.k != 2 {
			continue
		}
		calls++
		last = c
		packed, err := EstimatePacked(c.cols, c.mask, Config{}, &scr)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		byteRes, err := Estimate(corpusPatterns(c), 2, Config{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		requireIdentical(t, "corpus", packed, byteRes)
		if packed.Iterations != 0 || !packed.Converged {
			t.Fatalf("case %d: Iterations %d, Converged %v; want 0 and true", i, packed.Iterations, packed.Converged)
		}
		plainLL := plain[i].ll
		if short := (plainLL - packed.LogLik()) / math.Abs(plainLL); short > 1e-9 {
			t.Errorf("case %d (n=%d): exact LL %v is %.3g relative below plain %v", i, c.n, packed.LogLik(), short, plainLL)
		}
		if packed.LogLik() > plainLL {
			above++
		}
	}
	if calls != 800 {
		t.Fatalf("corpus has %d k = 2 calls, want 800", calls)
	}
	t.Logf("%d k = 2 calls: %d end above the plain EM's log-likelihood", calls, above)

	run := func() {
		if _, err := EstimatePacked(last.cols, last.mask, Config{}, &scr); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("k = 2 EstimatePacked allocates %.1f per call on a warm Scratch, want 0", allocs)
	}
}

// TestTwoLocusEMLowerLocalMaximum pins a table a brute-force search
// over all tables of up to nine individuals found: from the H0 point
// the EM climbs to the interior local maximum x = f(2,2) = 1/6, while
// the likelihood is higher at the end x = pB = 1/4 of the admissible
// interval, which the exact estimator returns.
func TestTwoLocusEMLowerLocalMaximum(t *testing.T) {
	tb := genoTable{{0, 0, 0}, {2, 2, 0}, {1, 1, 0}}
	var s twoLocus
	s.init(&tb)
	em := plainTwoLocus(&tb, 100000)
	if math.Abs(em[3]-1.0/6) > 1e-9 {
		t.Fatalf("plain EM ends at x = %v, want 1/6", em[3])
	}
	res := estimateTwoLocus(&tb, nil)
	if res.Freqs[3] != 0.25 {
		t.Fatalf("exact estimator x = %v, want 1/4", res.Freqs[3])
	}
	if emLL := s.cells.logLik(em); !(res.LogLik() > emLL+0.05) {
		t.Fatalf("exact LL %v is not above the EM's local maximum %v", res.LogLik(), emLL)
	}
}

// FuzzTwoLocus checks the exact estimator on arbitrary 3×3 genotype
// tables (the seed corpus has empty rows and columns, all double
// heterozygotes, a single individual and monomorphic loci):
//   - the frequencies are non-negative and sum to 1 within 1e-15;
//   - they keep the allele marginals within 1e-15;
//   - LogLik is the frequencies' log-likelihood, not below NullLogLik,
//     a 100,000-step plain EM's, or any point of a 1,001-point grid
//     over the admissible interval, each within 1e-12 relative;
//   - LogLik and NullLogLik are the eager oracle's, bit for bit.
func FuzzTwoLocus(f *testing.F) {
	f.Fuzz(func(t *testing.T, c00, c01, c02, c10, c11, c12, c20, c21, c22 uint16) {
		tb := genoTable{
			{int(c00), int(c01), int(c02)},
			{int(c10), int(c11), int(c12)},
			{int(c20), int(c21), int(c22)},
		}
		var s twoLocus
		s.init(&tb)
		if s.n == 0 {
			return
		}
		res := estimateTwoLocus(&tb, nil)
		fr := res.Freqs
		sum := 0.0
		for h, v := range fr {
			if !(v >= 0) {
				t.Fatalf("%v: Freqs[%d] = %v", tb, h, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-15 {
			t.Fatalf("%v: frequencies sum to 1%+.3g", tb, sum-1)
		}
		var cA, cB int
		for a := range 3 {
			for b := range 3 {
				cA += a * tb[a][b]
				cB += b * tb[a][b]
			}
		}
		pA, pB := float64(cA)/(2*float64(s.n)), float64(cB)/(2*float64(s.n))
		if d := max(math.Abs(fr[1]+fr[3]-pA), math.Abs(fr[2]+fr[3]-pB)); d > 1e-15 {
			t.Fatalf("%v: allele marginals off by %.3g", tb, d)
		}
		requireEagerLogLiks(t, fmt.Sprint(tb), groupsFromTable(&tb), res)
		if ll := s.cells.logLik(fr); ll != res.LogLik() {
			t.Fatalf("%v: LogLik %v, log-likelihood of Freqs %v", tb, res.LogLik(), ll)
		}
		below := func(what string, x, ll float64) {
			if res.LogLik() < ll-1e-12*math.Abs(ll) {
				t.Fatalf("%v: LogLik %v at x = %v is below %s %v at x = %v", tb, res.LogLik(), fr[3], what, ll, x)
			}
		}
		below("NullLogLik", res.NullFreqs[3], res.NullLogLik())
		em := plainTwoLocus(&tb, 100000)
		below("the plain EM's", em[3], s.cells.logLik(em))
		grid := make([]float64, 4)
		for i := 0; i <= 1000; i++ {
			x := min(s.lo+(s.hi-s.lo)*float64(i)/1000, s.hi)
			s.freqsAt(x, grid)
			below("the grid point's", x, s.cells.logLik(grid))
		}
	})
}

// BenchmarkEstimateTwoLocus times the corpus's k = 2 calls two ways,
// one op being all of them: path=exact runs EstimatePacked, popcount
// table included; path=em runs estimateCore, the general EM, on the
// same calls' pattern groups, grouping excluded. Each reports ns/call.
func BenchmarkEstimateTwoLocus(b *testing.B) {
	var calls []corpusCase
	for _, c := range paperCorpus(b) {
		if c.k == 2 {
			calls = append(calls, c)
		}
	}
	cfg := Config{}.withDefaults()
	for _, path := range []string{"exact", "em"} {
		b.Run("path="+path, func(b *testing.B) {
			var scr Scratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range calls {
					if path == "em" {
						estimateCore(c.groups, c.n, c.k, c.p2, cfg, &scr)
						continue
					}
					if _, err := EstimatePacked(c.cols, c.mask, cfg, &scr); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(calls)), "ns/call")
		})
	}
}
