package repro_test

import (
	"context"
	"testing"

	"repro"
	"repro/internal/ehdiall"
	"repro/internal/fitness"
)

func backendTestDataset(t *testing.T) *repro.Dataset {
	t.Helper()
	d, err := repro.GenerateDataset(repro.GeneratorConfig{
		NumSNPs: 14, NumAffected: 30, NumUnaffected: 30,
		RiskHaplotypeFreq: 0.3,
		Disease: repro.DiseaseModel{
			CausalSites: []int{3, 9}, RiskAlleles: []uint8{1, 1},
			BaseRisk: 0.15, HaplotypeEffect: 0.6,
		},
		Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func backendTestConfig() repro.GAConfig {
	return repro.GAConfig{
		MinSize: 2, MaxSize: 3, PopulationSize: 24,
		PairsPerGeneration: 8, StagnationLimit: 12,
		ImmigrantStagnation: 5, MaxGenerations: 200, Seed: 5,
	}
}

// assertSameResult fails unless the two results are bit-identical in
// trajectory and winners.
func assertSameResult(t *testing.T, name string, want, got *repro.GAResult) {
	t.Helper()
	if want.TotalEvaluations != got.TotalEvaluations {
		t.Errorf("%s: %d evaluations, want %d", name, got.TotalEvaluations, want.TotalEvaluations)
	}
	if want.Generations != got.Generations {
		t.Errorf("%s: %d generations, want %d", name, got.Generations, want.Generations)
	}
	if len(want.BestBySize) != len(got.BestBySize) {
		t.Fatalf("%s: %d sizes, want %d", name, len(got.BestBySize), len(want.BestBySize))
	}
	for size, wb := range want.BestBySize {
		gb := got.BestBySize[size]
		if gb == nil {
			t.Fatalf("%s: no best for size %d", name, size)
		}
		if wb.Fitness != gb.Fitness {
			t.Errorf("%s size %d: fitness %v, want %v", name, size, gb.Fitness, wb.Fitness)
		}
		if len(wb.Sites) != len(gb.Sites) {
			t.Fatalf("%s size %d: sites %v, want %v", name, size, gb.Sites, wb.Sites)
		}
		for i := range wb.Sites {
			if wb.Sites[i] != gb.Sites[i] {
				t.Errorf("%s size %d: sites %v, want %v", name, size, gb.Sites, wb.Sites)
				break
			}
		}
	}
}

// TestBackendParity: a fixed seed must produce the identical result
// under the native engine, the goroutine pool and the PVM simulation —
// the backends differ only in speed, never in trajectory. A session
// over the byte reference pipeline (the kernel oracle) must match too,
// so the packed kernel every backend runs leaves the GA trajectory
// unchanged.
func TestBackendParity(t *testing.T) {
	d := backendTestDataset(t)
	cfg := backendTestConfig()
	run := func(opts ...repro.Option) *repro.GAResult {
		s, err := repro.NewSession(d, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		res, err := s.Run(context.Background(), repro.WithGAConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	native := run(repro.WithBackend(repro.BackendNative), repro.WithWorkers(3))
	for _, bc := range []struct {
		name    string
		backend repro.Backend
	}{
		{"native", repro.BackendNative},
		{"pool", repro.BackendPool},
		{"pvm", repro.BackendPVM},
	} {
		assertSameResult(t, bc.name, native, run(repro.WithBackend(bc.backend), repro.WithWorkers(3)))
	}

	oracle, err := fitness.NewPipelineKernel(d, repro.T1, ehdiall.Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "byte-oracle", native, run(repro.WithEvaluator(oracle)))
}

// TestEngineCacheHitRateDuringRun: the GA re-visits haplotypes across
// generations, so a run through the native engine must produce cache
// hits and compute strictly less than it serves.
func TestEngineCacheHitRateDuringRun(t *testing.T) {
	d := backendTestDataset(t)
	eng, err := repro.NewEngine(d, repro.T1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	s, err := repro.NewSession(d, repro.WithEvaluator(eng))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run(context.Background(), repro.WithGAConfig(backendTestConfig()))
	if err != nil {
		t.Fatal(err)
	}
	rep := eng.Report()
	if rep.CacheHits == 0 || rep.HitRate() <= 0 {
		t.Fatalf("no cache hits on a repeated-genotype run: %+v", rep)
	}
	if rep.Computed >= rep.Requests {
		t.Fatalf("computed %d of %d requests; memoization had no effect", rep.Computed, rep.Requests)
	}
	// The GA coalesces in-batch duplicates itself, so the engine sees
	// at most the GA's requested-score count.
	if rep.Requests == 0 || rep.Requests > res.TotalEvaluations {
		t.Errorf("engine saw %d requests, GA counted %d evaluations", rep.Requests, res.TotalEvaluations)
	}
	var perWorker int64
	for _, n := range rep.PerWorker {
		perWorker += n
	}
	if perWorker != rep.Computed {
		t.Errorf("per-worker counts sum to %d, computed %d", perWorker, rep.Computed)
	}
	if rep.Throughput() <= 0 || rep.WorkerThroughput() <= 0 {
		t.Errorf("throughput not positive: %+v", rep)
	}
}
