package fitness

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/clump"
	"repro/internal/ehdiall"
	"repro/internal/genotype"
	"repro/internal/popgen"
	"repro/internal/rng"
)

func paperDataset(t testing.TB, seed uint64) *genotype.Dataset {
	t.Helper()
	d, err := popgen.Generate(popgen.Paper51(seed))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newPaperPipeline(t testing.TB, seed uint64) *Pipeline {
	t.Helper()
	p, err := NewPipeline(paperDataset(t, seed), clump.T1, ehdiall.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPipelineBasicEvaluate(t *testing.T) {
	p := newPaperPipeline(t, 1)
	v, err := p.Evaluate([]int{7, 11})
	if err != nil {
		t.Fatal(err)
	}
	if v < 0 || math.IsNaN(v) {
		t.Fatalf("fitness = %v", v)
	}
}

func TestPipelineCausalBeatsRandom(t *testing.T) {
	p := newPaperPipeline(t, 2)
	causal, err := p.Evaluate(popgen.PaperCausalSites[:3])
	if err != nil {
		t.Fatal(err)
	}
	// Average fitness of random site triples should be clearly lower
	// than the planted causal triple.
	r := rng.New(3)
	worse := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		sites := r.Sample(51, 3)
		genotype.SortSites(sites)
		v, err := p.Evaluate(sites)
		if err != nil {
			t.Fatal(err)
		}
		if v < causal {
			worse++
		}
	}
	if worse < trials*3/4 {
		t.Fatalf("causal triple (fitness %v) beat only %d/%d random triples", causal, worse, trials)
	}
}

func TestPipelineValidatesSites(t *testing.T) {
	p := newPaperPipeline(t, 1)
	cases := [][]int{
		{},      // empty
		{3, 3},  // duplicate
		{5, 2},  // unsorted
		{-1, 4}, // negative
		{4, 99}, // out of range
		make([]int, ehdiall.MaxSNPs+1),
	}
	for _, sites := range cases {
		if _, err := p.Evaluate(sites); err == nil {
			t.Errorf("invalid sites %v accepted", sites)
		}
	}
}

func TestPipelineDeterministic(t *testing.T) {
	p := newPaperPipeline(t, 4)
	sites := []int{2, 9, 30}
	a, err := p.Evaluate(sites)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Evaluate(sites)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("evaluation not deterministic: %v vs %v", a, b)
	}
}

func TestPipelineConcurrentSafety(t *testing.T) {
	p := newPaperPipeline(t, 5)
	var wg sync.WaitGroup
	results := make([]float64, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := p.Evaluate([]int{1, 8, 20})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = v
		}(i)
	}
	wg.Wait()
	for i := 1; i < 16; i++ {
		if results[i] != results[0] {
			t.Fatalf("concurrent evaluations disagree: %v vs %v", results[i], results[0])
		}
	}
}

func TestDetailsConsistency(t *testing.T) {
	p := newPaperPipeline(t, 6)
	sites := []int{7, 11, 14}
	det, err := p.Details(sites)
	if err != nil {
		t.Fatal(err)
	}
	if det.Fitness != det.Clump.T1 {
		t.Fatalf("fitness %v != T1 %v for a T1 pipeline", det.Fitness, det.Clump.T1)
	}
	if det.Affected.K != 3 || det.Unaffected.K != 3 {
		t.Fatal("group estimations have wrong k")
	}
	v, err := p.Evaluate(sites)
	if err != nil {
		t.Fatal(err)
	}
	if v != det.Fitness {
		t.Fatal("Evaluate disagrees with Details")
	}
}

func TestStatSelection(t *testing.T) {
	d := paperDataset(t, 7)
	sites := []int{7, 11, 14}
	var values [4]float64
	for i, s := range []clump.Statistic{clump.T1, clump.T2, clump.T3, clump.T4} {
		p, err := NewPipeline(d, s, ehdiall.Config{})
		if err != nil {
			t.Fatal(err)
		}
		v, err := p.Evaluate(sites)
		if err != nil {
			t.Fatal(err)
		}
		values[i] = v
	}
	det, err := mustPipeline(d, clump.T1).Details(sites)
	if err != nil {
		t.Fatal(err)
	}
	if values[0] != det.Clump.T1 || values[1] != det.Clump.T2 ||
		values[2] != det.Clump.T3 || values[3] != det.Clump.T4 {
		t.Fatalf("stat selection wrong: %v vs %+v", values, det.Clump)
	}
}

func mustPipeline(d *genotype.Dataset, s clump.Statistic) *Pipeline {
	p, err := NewPipeline(d, s, ehdiall.Config{})
	if err != nil {
		panic(err)
	}
	return p
}

func TestNewPipelineErrors(t *testing.T) {
	if _, err := NewPipeline(nil, clump.T1, ehdiall.Config{}); err == nil {
		t.Fatal("nil dataset accepted")
	}
	d := paperDataset(t, 1)
	if _, err := NewPipeline(d, clump.Statistic(0), ehdiall.Config{}); err == nil {
		t.Fatal("invalid statistic accepted")
	}
	onlyCases := &genotype.Dataset{
		SNPs: d.SNPs,
		Individuals: []genotype.Individual{
			{ID: "a", Status: genotype.Affected, Genotypes: d.Individuals[0].Genotypes},
		},
	}
	if _, err := NewPipeline(onlyCases, clump.T1, ehdiall.Config{}); err == nil {
		t.Fatal("dataset without controls accepted")
	}
}

func TestEmptyGroupError(t *testing.T) {
	// All affected individuals missing at site 0 -> ErrEmptyGroup.
	d := &genotype.Dataset{
		SNPs: []genotype.SNP{{Name: "a"}, {Name: "b"}},
		Individuals: []genotype.Individual{
			{ID: "1", Status: genotype.Affected, Genotypes: []genotype.Genotype{genotype.Missing, 1}},
			{ID: "2", Status: genotype.Unaffected, Genotypes: []genotype.Genotype{0, 1}},
			{ID: "3", Status: genotype.Unaffected, Genotypes: []genotype.Genotype{1, 1}},
		},
	}
	for _, packed := range []bool{true, false} {
		p, err := NewPipelineKernel(d, clump.T1, ehdiall.Config{}, packed)
		if err != nil {
			t.Fatal(err)
		}
		calls := map[string]func() error{
			"Evaluate": func() error { _, err := p.Evaluate([]int{0}); return err },
			"Details":  func() error { _, err := p.Details([]int{0}); return err },
			"MonteCarloP": func() error {
				_, err := p.MonteCarloP([]int{0}, 10, rng.New(1))
				return err
			},
		}
		for name, call := range calls {
			if err := call(); !errors.Is(err, ErrEmptyGroup) {
				t.Errorf("packed=%v %s: err = %v, want ErrEmptyGroup", packed, name, err)
			}
		}
	}
}

func TestConcatTableShape(t *testing.T) {
	p := newPaperPipeline(t, 8)
	det, err := p.Details([]int{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	table, err := ConcatTable(det.Affected, det.Unaffected)
	if err != nil {
		t.Fatal(err)
	}
	if table.Rows() != 2 || table.Cols() != 4 {
		t.Fatalf("table shape %dx%d, want 2x4", table.Rows(), table.Cols())
	}
	rt := table.RowTotals()
	if math.Abs(rt[0]-2*float64(det.Affected.N)) > 1e-6 {
		t.Fatalf("affected row total %v, want %v", rt[0], 2*float64(det.Affected.N))
	}
	// Mismatched k must be rejected.
	if _, err := ConcatTable(det.Affected, &ehdiall.Result{K: 3}); err == nil {
		t.Fatal("mismatched k accepted")
	}
}

func TestMonteCarloPOnCausal(t *testing.T) {
	p := newPaperPipeline(t, 9)
	pv, err := p.MonteCarloP(popgen.PaperCausalSites[:3], 200, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if pv.T1 > 0.05 {
		t.Fatalf("causal haplotype MC p = %v, want significant", pv.T1)
	}
	if _, err := p.MonteCarloP([]int{9, 3}, 10, rng.New(1)); err == nil {
		t.Fatal("invalid sites accepted by MonteCarloP")
	}
}

func TestLatencyDecorator(t *testing.T) {
	ev := Func(func(sites []int) (float64, error) { return 1, nil })
	l := NewLatency(ev, 20*time.Millisecond)
	start := time.Now()
	if _, err := l.Evaluate([]int{1}); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Fatalf("latency decorator too fast: %v", el)
	}
	// Zero latency must not sleep.
	z := NewLatency(ev, 0)
	start = time.Now()
	if _, err := z.Evaluate([]int{1}); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 5*time.Millisecond {
		t.Fatalf("zero latency slept: %v", el)
	}
}

// Figure 4's exponential growth of evaluation cost with haplotype
// size, measured on the real pipeline.
func benchmarkEvaluateSize(b *testing.B, k int) {
	p := newPaperPipeline(b, 42)
	r := rng.New(7)
	sites := r.Sample(51, k)
	genotype.SortSites(sites)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Evaluate(sites); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateSize2(b *testing.B) { benchmarkEvaluateSize(b, 2) }
func BenchmarkEvaluateSize3(b *testing.B) { benchmarkEvaluateSize(b, 3) }
func BenchmarkEvaluateSize4(b *testing.B) { benchmarkEvaluateSize(b, 4) }
func BenchmarkEvaluateSize5(b *testing.B) { benchmarkEvaluateSize(b, 5) }
func BenchmarkEvaluateSize6(b *testing.B) { benchmarkEvaluateSize(b, 6) }
func BenchmarkEvaluateSize7(b *testing.B) { benchmarkEvaluateSize(b, 7) }
