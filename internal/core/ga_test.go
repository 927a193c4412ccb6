package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/fitness"
)

// plantedEvaluator scores a haplotype by its overlap with a hidden
// target set, scaled so that larger sizes have larger fitness ranges
// (mimicking the real pipeline's behaviour, §3).
func plantedEvaluator(target []int) fitness.Evaluator {
	inTarget := make(map[int]bool, len(target))
	for _, s := range target {
		inTarget[s] = true
	}
	return fitness.Func(func(sites []int) (float64, error) {
		overlap := 0
		for _, s := range sites {
			if inTarget[s] {
				overlap++
			}
		}
		// Deterministic tie-breaking noise from the site values keeps
		// the search non-trivial without randomness.
		noise := 0.0
		for _, s := range sites {
			noise += float64((s*2654435761)%97) / 9700
		}
		return float64(len(sites)*10) + float64(overlap*overlap)*3 + noise, nil
	})
}

var testTarget = []int{2, 5, 8, 11, 14, 17}

func testConfig(seed uint64) Config {
	return Config{
		MinSize: 2, MaxSize: 4,
		PopulationSize:      60,
		PairsPerGeneration:  20,
		StagnationLimit:     30,
		ImmigrantStagnation: 10,
		MaxGenerations:      400,
		Seed:                seed,
	}
}

func TestGAFindsPlantedTarget(t *testing.T) {
	ga, err := New(plantedEvaluator(testTarget), 20, testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ga.Run()
	if err != nil {
		t.Fatal(err)
	}
	for size := 2; size <= 4; size++ {
		best := res.BestBySize[size]
		if best == nil {
			t.Fatalf("no best for size %d", size)
		}
		overlap := 0
		for _, s := range best.Sites {
			for _, ts := range testTarget {
				if s == ts {
					overlap++
				}
			}
		}
		if overlap != size {
			t.Errorf("size %d best %v has overlap %d with target, want %d",
				size, best.Sites, overlap, size)
		}
	}
	if !res.Converged {
		t.Error("run did not converge by stagnation")
	}
}

func TestGADeterministicGivenSeed(t *testing.T) {
	run := func() *Result {
		ga, err := New(plantedEvaluator(testTarget), 20, testConfig(42))
		if err != nil {
			t.Fatal(err)
		}
		res, err := ga.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalEvaluations != b.TotalEvaluations || a.Generations != b.Generations {
		t.Fatalf("same seed, different trajectory: %d/%d evals, %d/%d gens",
			a.TotalEvaluations, b.TotalEvaluations, a.Generations, b.Generations)
	}
	for size := 2; size <= 4; size++ {
		if a.BestBySize[size].Key() != b.BestBySize[size].Key() {
			t.Fatalf("same seed, different best for size %d", size)
		}
	}
}

func TestGADifferentSeedsDiffer(t *testing.T) {
	evalCount := func(seed uint64) int64 {
		ga, _ := New(plantedEvaluator(testTarget), 20, testConfig(seed))
		res, err := ga.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalEvaluations
	}
	if evalCount(1) == evalCount(2) && evalCount(3) == evalCount(4) {
		t.Fatal("different seeds produced identical trajectories")
	}
}

func TestGAEvaluationCountCoversEvaluator(t *testing.T) {
	// TotalEvaluations counts every score the GA requests — the
	// paper's cost metric, independent of the evaluation backend. The
	// evaluator itself sees at most that many calls, because identical
	// SNP sets within a batch are coalesced before submission.
	var calls atomic.Int64
	planted := plantedEvaluator(testTarget)
	counter := fitness.Func(func(sites []int) (float64, error) {
		calls.Add(1)
		return planted.Evaluate(sites)
	})
	ga, err := New(counter, 20, testConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ga.Run()
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() > res.TotalEvaluations {
		t.Fatalf("evaluator saw %d calls, more than the GA's %d requested evaluations",
			calls.Load(), res.TotalEvaluations)
	}
	if calls.Load() == 0 || res.TotalEvaluations == 0 {
		t.Fatal("no evaluations performed")
	}
	for size, evals := range res.EvalsAtBest {
		if evals <= 0 || evals > res.TotalEvaluations {
			t.Fatalf("EvalsAtBest[%d] = %d outside (0, %d]",
				size, evals, res.TotalEvaluations)
		}
	}
}

func TestGAStopsOnStagnation(t *testing.T) {
	// A constant evaluator can never improve, so the run must stop
	// right after StagnationLimit generations.
	constant := fitness.Func(func(sites []int) (float64, error) { return 1, nil })
	cfg := testConfig(3)
	cfg.StagnationLimit = 12
	cfg.DisableRandomImmigrants = true
	ga, err := New(constant, 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ga.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("constant fitness did not converge")
	}
	if res.Generations != 12 {
		t.Fatalf("generations = %d, want 12", res.Generations)
	}
}

func TestGAMaxGenerationsCap(t *testing.T) {
	cfg := testConfig(5)
	cfg.MaxGenerations = 3
	cfg.StagnationLimit = 1000
	ga, err := New(plantedEvaluator(testTarget), 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ga.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("capped run reported convergence")
	}
	if res.Generations != 3 {
		t.Fatalf("generations = %d, want 3", res.Generations)
	}
}

func TestGARespectsConstraint(t *testing.T) {
	// Forbid SNP 0 entirely.
	cfg := testConfig(11)
	cfg.Constraint = func(sites []int) bool {
		for _, s := range sites {
			if s == 0 {
				return false
			}
		}
		return true
	}
	seen0 := false
	ev := fitness.Func(func(sites []int) (float64, error) {
		for _, s := range sites {
			if s == 0 {
				seen0 = true
			}
		}
		return float64(len(sites)), nil
	})
	ga, err := New(ev, 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ga.Run(); err != nil {
		t.Fatal(err)
	}
	if seen0 {
		t.Fatal("constrained SNP was evaluated")
	}
}

func TestGAImpossibleConstraintErrors(t *testing.T) {
	cfg := testConfig(1)
	cfg.Constraint = func(sites []int) bool { return false }
	ga, err := New(plantedEvaluator(testTarget), 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ga.Run(); err == nil {
		t.Fatal("impossible constraint did not error")
	}
}

func TestGAEvaluatorErrorsAreSkipped(t *testing.T) {
	// Haplotypes containing SNP 13 fail to evaluate; the GA must
	// carry on and never report such a haplotype as best.
	ev := fitness.Func(func(sites []int) (float64, error) {
		for _, s := range sites {
			if s == 13 {
				return 0, fmt.Errorf("injected failure")
			}
		}
		return float64(len(sites)*10) + float64(sites[0]), nil
	})
	ga, err := New(ev, 20, testConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ga.Run()
	if err != nil {
		t.Fatal(err)
	}
	for size, best := range res.BestBySize {
		for _, s := range best.Sites {
			if s == 13 {
				t.Fatalf("size %d best contains failing SNP: %v", size, best.Sites)
			}
		}
	}
}

func TestGATraceCallback(t *testing.T) {
	var entries []TraceEntry
	cfg := testConfig(17)
	cfg.OnGeneration = func(e TraceEntry) { entries = append(entries, e) }
	ga, err := New(plantedEvaluator(testTarget), 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ga.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != res.Generations {
		t.Fatalf("trace has %d entries, want %d", len(entries), res.Generations)
	}
	for i, e := range entries {
		if e.Generation != i+1 {
			t.Fatalf("entry %d has generation %d", i, e.Generation)
		}
		if len(e.MutationRates) != 3 || len(e.CrossoverRates) != 2 {
			t.Fatal("trace rates have wrong arity")
		}
	}
	// Evaluations must be non-decreasing along the trace.
	for i := 1; i < len(entries); i++ {
		if entries[i].Evaluations < entries[i-1].Evaluations {
			t.Fatal("evaluation counter decreased")
		}
	}
}

func TestGAAblationSwitches(t *testing.T) {
	cfg := testConfig(19)
	cfg.DisableSizeMutations = true
	cfg.DisableInterPopCrossover = true
	cfg.DisableRandomImmigrants = true
	ga, err := New(plantedEvaluator(testTarget), 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ga.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MutationRates[int(MutReduction)] != 0 || res.MutationRates[int(MutAugmentation)] != 0 {
		t.Fatalf("size mutations not disabled: %v", res.MutationRates)
	}
	if res.CrossoverRates[int(XInter)] != 0 {
		t.Fatalf("inter-pop crossover not disabled: %v", res.CrossoverRates)
	}
	if res.Immigrants != 0 {
		t.Fatalf("random immigrants not disabled: %d injected", res.Immigrants)
	}
}

func TestGAFrozenRatesWhenAdaptiveDisabled(t *testing.T) {
	cfg := testConfig(23)
	cfg.DisableAdaptiveRates = true
	ga, err := New(plantedEvaluator(testTarget), 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ga.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.MutationRates {
		if r != cfg.withDefaults().GlobalMutationRate/3 {
			t.Fatalf("adaptive disabled but rates moved: %v", res.MutationRates)
		}
	}
}

func TestRandomImmigrantsReplaceBelowMean(t *testing.T) {
	ga, err := New(plantedEvaluator(testTarget), 20, testConfig(29))
	if err != nil {
		t.Fatal(err)
	}
	if err := ga.Initialize(context.Background()); err != nil {
		t.Fatal(err)
	}
	// After initialization the subpopulations have fitness spread, so
	// members strictly below their mean exist and must be replaced.
	doomed := 0
	for _, s := range ga.sizes {
		doomed += len(ga.subs[s].belowMean())
	}
	if doomed == 0 {
		t.Fatal("test setup: no members below mean")
	}
	before := ga.evals
	injected := ga.RandomImmigrants(context.Background())
	if injected == 0 {
		t.Fatal("random immigrants replaced nobody")
	}
	if ga.evals == before {
		t.Fatal("immigrants were not evaluated")
	}
	if ga.immigrants != int64(injected) {
		t.Fatalf("immigrant counter %d != injected %d", ga.immigrants, injected)
	}
	// Population sizes are preserved (replacement, not growth).
	for _, s := range ga.sizes {
		sp := ga.subs[s]
		if len(sp.members) > sp.capacity {
			t.Fatalf("size %d over capacity after immigration", s)
		}
	}
}

func TestGAImmigrantsFireOnStagnation(t *testing.T) {
	// A hash-valued fitness keeps population spread while the best
	// stops improving quickly, so the stagnation-triggered immigrant
	// mechanism must fire during the run.
	ev := fitness.Func(func(sites []int) (float64, error) {
		h := uint64(0)
		for _, s := range sites {
			h = h*31 + uint64(s)*2654435761
		}
		return float64(h % 10007), nil
	})
	cfg := testConfig(29)
	cfg.ImmigrantStagnation = 3
	cfg.StagnationLimit = 40
	fired := false
	cfg.OnGeneration = func(e TraceEntry) {
		if e.Immigrants > 0 {
			fired = true
		}
	}
	ga, err := New(ev, 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ga.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !fired && res.Immigrants == 0 {
		t.Fatal("random immigrants never fired under stagnation")
	}
}

func TestGAConfigValidation(t *testing.T) {
	ev := plantedEvaluator(testTarget)
	cases := []Config{
		{MinSize: 3, MaxSize: 2},                       // inverted sizes
		{MinSize: 2, MaxSize: 25},                      // exceeds SNPs
		{MinSize: 2, MaxSize: 4, PopulationSize: 3},    // too small
		{GlobalMutationRate: 1.5},                      // bad rate
		{GlobalCrossoverRate: -0.1},                    // bad rate
		{MinOperatorRate: 0.5, GlobalMutationRate: .9}, // floor too high
	}
	for i, cfg := range cases {
		if _, err := New(ev, 20, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := New(nil, 20, Config{}); err == nil {
		t.Error("nil evaluator accepted")
	}
	if _, err := New(ev, 1, Config{}); err == nil {
		t.Error("single-SNP problem accepted")
	}
}

func TestGARunTwiceFails(t *testing.T) {
	ga, err := New(plantedEvaluator(testTarget), 20, testConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ga.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := ga.Run(); err == nil {
		t.Fatal("second Run did not fail")
	}
}

func TestGASingleSizeDisablesInter(t *testing.T) {
	cfg := testConfig(37)
	cfg.MinSize, cfg.MaxSize = 3, 3
	cfg.PopulationSize = 30
	ga, err := New(plantedEvaluator(testTarget), 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ga.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CrossoverRates[int(XInter)] != 0 {
		t.Fatal("inter-pop crossover active with one subpopulation")
	}
	if len(res.BestBySize) != 1 {
		t.Fatalf("expected 1 size, got %d", len(res.BestBySize))
	}
}

func TestCapacitiesSumAndMonotone(t *testing.T) {
	cfg := Config{MinSize: 2, MaxSize: 6, PopulationSize: 150}.withDefaults()
	caps := cfg.capacities(51)
	total := 0
	for s := 2; s <= 6; s++ {
		total += caps[s]
		if caps[s] < 2 {
			t.Fatalf("capacity[%d] = %d below floor", s, caps[s])
		}
	}
	if total != 150 {
		t.Fatalf("capacities sum to %d, want 150", total)
	}
	// §4.2: capacities increase with haplotype size.
	for s := 3; s <= 6; s++ {
		if caps[s] < caps[s-1] {
			t.Fatalf("capacities not non-decreasing: %v", caps)
		}
	}
}

func TestConfigDefaultsMatchPaper(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.GlobalMutationRate != 0.9 {
		t.Errorf("default mutation rate %v, paper uses 0.9", cfg.GlobalMutationRate)
	}
	if cfg.PopulationSize != 150 {
		t.Errorf("default population %d, paper uses 150", cfg.PopulationSize)
	}
	if cfg.StagnationLimit != 100 {
		t.Errorf("default stagnation %d, paper uses 100", cfg.StagnationLimit)
	}
	if cfg.ImmigrantStagnation != 20 {
		t.Errorf("default RI stagnation %d, paper uses 20", cfg.ImmigrantStagnation)
	}
	if cfg.MaxSize != 6 {
		t.Errorf("default max size %d, paper uses 6", cfg.MaxSize)
	}
}

func BenchmarkGARunSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ga, err := New(plantedEvaluator(testTarget), 20, testConfig(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ga.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRunContextCancelReturnsPartialResult(t *testing.T) {
	cancelAfter := 3
	ctx, cancel := context.WithCancel(context.Background())
	cfg := testConfig(5)
	cfg.StagnationLimit = 1000
	cfg.MaxGenerations = 1000
	cfg.OnGeneration = func(e TraceEntry) {
		if e.Generation == cancelAfter {
			cancel()
		}
	}
	ga, err := New(plantedEvaluator(testTarget), 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ga.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	// The cancel fires in generation cancelAfter's trace; the loop
	// breaks at the top of the next generation, so exactly cancelAfter
	// generations completed.
	if res.Generations != cancelAfter {
		t.Fatalf("completed %d generations, want %d (stop within one generation of cancel)", res.Generations, cancelAfter)
	}
	if len(res.BestBySize) == 0 {
		t.Fatal("partial result carries no per-size bests")
	}
	if !res.Converged && res.TotalEvaluations == 0 {
		t.Fatal("partial result lost the evaluation count")
	}
}

func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ga, err := New(plantedEvaluator(testTarget), 20, testConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ga.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Generations != 0 {
		t.Fatalf("pre-cancelled run: res = %+v", res)
	}
}
