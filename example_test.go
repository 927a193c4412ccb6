package repro_test

import (
	"context"
	"fmt"

	"repro"
)

// ExampleNewSession demonstrates the Session API: one session owns
// the dataset and its evaluation backend, runs are context-aware, and
// the memoizing cache persists across runs.
func ExampleNewSession() {
	data, err := repro.GenerateDataset(repro.GeneratorConfig{
		NumSNPs: 12, NumAffected: 30, NumUnaffected: 30,
		RiskHaplotypeFreq: 0.3,
		Disease: repro.DiseaseModel{
			CausalSites: []int{2, 7}, RiskAlleles: []uint8{1, 1},
			BaseRisk: 0.15, HaplotypeEffect: 0.6,
		},
		Seed: 4,
	})
	if err != nil {
		panic(err)
	}
	session, err := repro.NewSession(data,
		repro.WithWorkers(4),
		repro.WithGAConfig(repro.GAConfig{
			MinSize: 2, MaxSize: 2, PopulationSize: 20,
			PairsPerGeneration: 6, StagnationLimit: 10, Seed: 2,
		}))
	if err != nil {
		panic(err)
	}
	defer session.Close()

	result, err := session.Run(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Printf("best pair: %v\n", data.SNPNames(result.BestBySize[2].Sites))

	// A second identical run is served from the session's cache.
	if _, err := session.Run(context.Background()); err != nil {
		panic(err)
	}
	report, _ := session.Report()
	fmt.Printf("cache hits observed: %v\n", report.CacheHits > 0)
	fmt.Printf("computed less than requested: %v\n", report.Computed < report.Requests)
	// Output:
	// best pair: [SNP3 SNP8]
	// cache hits observed: true
	// computed less than requested: true
}

// ExampleSession_Start runs the GA in the background and streams its
// per-generation progress through the Job handle.
func ExampleSession_Start() {
	data, err := repro.GenerateDataset(repro.GeneratorConfig{
		NumSNPs: 12, NumAffected: 30, NumUnaffected: 30,
		RiskHaplotypeFreq: 0.3,
		Disease: repro.DiseaseModel{
			CausalSites: []int{2, 7}, RiskAlleles: []uint8{1, 1},
			BaseRisk: 0.15, HaplotypeEffect: 0.6,
		},
		Seed: 4,
	})
	if err != nil {
		panic(err)
	}
	session, err := repro.NewSession(data)
	if err != nil {
		panic(err)
	}
	defer session.Close()

	job, err := session.Start(context.Background(), repro.WithGAConfig(repro.GAConfig{
		MinSize: 2, MaxSize: 2, PopulationSize: 20,
		PairsPerGeneration: 6, StagnationLimit: 10, Seed: 2,
	}))
	if err != nil {
		panic(err)
	}
	generations := 0
	for range job.Progress() {
		generations++ // one entry per generation (conflated if slow)
	}
	result, err := job.Wait()
	if err != nil {
		panic(err)
	}
	fmt.Printf("streamed progress: %v\n", generations > 0)
	fmt.Printf("best pair: %v\n", data.SNPNames(result.BestBySize[2].Sites))
	// Output:
	// streamed progress: true
	// best pair: [SNP3 SNP8]
}

// ExampleNewEngine runs the GA on the native concurrent evaluation
// engine and inspects the engine's counters afterwards: because the
// GA re-visits the same SNP sets across generations, the memoizing
// cache serves a large share of the requests.
func ExampleNewEngine() {
	data, err := repro.GenerateDataset(repro.GeneratorConfig{
		NumSNPs: 12, NumAffected: 30, NumUnaffected: 30,
		RiskHaplotypeFreq: 0.3,
		Disease: repro.DiseaseModel{
			CausalSites: []int{2, 7}, RiskAlleles: []uint8{1, 1},
			BaseRisk: 0.15, HaplotypeEffect: 0.6,
		},
		Seed: 4,
	})
	if err != nil {
		panic(err)
	}
	engine, err := repro.NewEngine(data, repro.T1, 4)
	if err != nil {
		panic(err)
	}
	defer engine.Close()
	session, err := repro.NewSession(data, repro.WithEvaluator(engine))
	if err != nil {
		panic(err)
	}
	defer session.Close()
	result, err := session.Run(context.Background(), repro.WithGAConfig(repro.GAConfig{
		MinSize: 2, MaxSize: 2, PopulationSize: 20,
		PairsPerGeneration: 6, StagnationLimit: 10, Seed: 2,
	}))
	if err != nil {
		panic(err)
	}
	report := engine.Report()
	fmt.Printf("best pair: %v\n", data.SNPNames(result.BestBySize[2].Sites))
	fmt.Printf("cache hits observed: %v\n", report.CacheHits > 0)
	fmt.Printf("computed less than requested: %v\n", report.Computed < report.Requests)
	// Output:
	// best pair: [SNP3 SNP8]
	// cache hits observed: true
	// computed less than requested: true
}

// ExampleNewEvaluator scores a single haplotype through the paper's
// EH-DIALL -> CLUMP pipeline without running the GA.
func ExampleNewEvaluator() {
	data, err := repro.Paper51Dataset(1)
	if err != nil {
		panic(err)
	}
	ev, err := repro.NewEvaluator(data, repro.T1)
	if err != nil {
		panic(err)
	}
	// The planted risk haplotype scores far above an arbitrary one.
	planted, _ := ev.Evaluate([]int{7, 11, 14}) // SNP8 SNP12 SNP15
	arbitrary, _ := ev.Evaluate([]int{0, 1, 2})
	fmt.Printf("planted beats arbitrary: %v\n", planted > arbitrary)
	// Output:
	// planted beats arbitrary: true
}
