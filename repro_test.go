package repro

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/baseline"
	"repro/internal/popgen"
)

func TestFacadeRoundTrip(t *testing.T) {
	d, err := Paper51Dataset(1)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumSNPs() != 51 || d.NumIndividuals() != 176 {
		t.Fatalf("shape = %d SNPs / %d individuals", d.NumSNPs(), d.NumIndividuals())
	}
	var buf bytes.Buffer
	if err := WriteDataset(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumIndividuals() != d.NumIndividuals() {
		t.Fatal("round trip lost individuals")
	}
}

func TestFacadeEvaluator(t *testing.T) {
	d, err := Paper51Dataset(2)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(d, T1)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ev.Evaluate([]int{7, 11, 14})
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Fatalf("fitness = %v", v)
	}
}

func TestFacadeParallelEvaluatorAgreesWithSerial(t *testing.T) {
	d, err := Paper51Dataset(3)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewEvaluator(d, T1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewParallelEvaluator(d, T1, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	if par.Slaves() != 3 {
		t.Fatalf("slaves = %d", par.Slaves())
	}
	batch := [][]int{{0, 5}, {7, 11, 14}, {1, 2, 3, 4}}
	values, errs := par.EvaluateBatch(batch)
	for i, sites := range batch {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := serial.Evaluate(sites)
		if err != nil {
			t.Fatal(err)
		}
		if values[i] != want {
			t.Fatalf("parallel disagrees with serial at %d: %v vs %v", i, values[i], want)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	// A reduced full-method run on a small synthetic study: the GA
	// must recover the planted causal haplotype subsets.
	cfg := popgen.Config{
		NumSNPs: 20, NumAffected: 40, NumUnaffected: 40,
		RiskHaplotypeFreq: 0.3,
		Disease: popgen.DiseaseModel{
			CausalSites:     []int{3, 9, 15},
			RiskAlleles:     []uint8{1, 0, 1},
			BaseRisk:        0.15,
			HaplotypeEffect: 0.6,
			AlleleEffect:    0.05,
		},
		Seed: 7,
	}
	d, err := GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(d, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run(context.Background(), WithGAConfig(GAConfig{
		MinSize: 2, MaxSize: 3,
		PopulationSize:     40,
		PairsPerGeneration: 10,
		StagnationLimit:    20,
		Seed:               1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BestBySize) != 2 {
		t.Fatalf("sizes = %d", len(res.BestBySize))
	}
	best3 := res.BestBySize[3]
	if best3 == nil || best3.Fitness <= 0 {
		t.Fatalf("size-3 best = %v", best3)
	}
	// The GA must reach the exhaustively enumerated optimum. (Note:
	// on finite samples with background LD, the statistically best
	// triple need not be the planted causal triple — that is exactly
	// the paper's §3 observation about the landscape.)
	ev, err := NewEvaluator(d, T1)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := baseline.Exhaustive(ev, d.NumSNPs(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if best3.Fitness < exact.BestFitness-1e-9 {
		t.Fatalf("GA best %v (%.3f) below enumerated optimum %v (%.3f)",
			best3.Sites, best3.Fitness, exact.BestSites, exact.BestFitness)
	}
}
