package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"testing"
	"time"

	"repro"
	"repro/internal/clump"
	"repro/internal/ehdiall"
	"repro/internal/engine"
	"repro/internal/fitness"
	"repro/internal/genotype"
	"repro/internal/shard"
)

var allStats = []clump.Statistic{clump.T1, clump.T2, clump.T3, clump.T4, clump.AA}

// testDataset is the 51-SNP preset with SNP 3 made missing for every
// affected individual, so that site sets touching it hit
// fitness.ErrEmptyGroup.
func testDataset(t *testing.T) *genotype.Dataset {
	t.Helper()
	d, err := repro.Paper51Dataset(7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Individuals {
		if d.Individuals[i].Status == genotype.Affected {
			d.Individuals[i].Genotypes[3] = genotype.Missing
		}
	}
	return d
}

// randomSites draws a strictly increasing site set of 1 to 6 sites.
func randomSites(r *rand.Rand, numSNPs int) []int {
	k := 1 + r.IntN(6)
	sites := r.Perm(numSNPs)[:k]
	sort.Ints(sites)
	return sites
}

// sameOutcome compares two evaluations bit for bit, and their errors
// by ErrEmptyGroup and by presence.
func sameOutcome(t *testing.T, what string, sites []int, want, got float64, werr, gerr error) {
	t.Helper()
	if errors.Is(werr, fitness.ErrEmptyGroup) != errors.Is(gerr, fitness.ErrEmptyGroup) || (werr == nil) != (gerr == nil) {
		t.Fatalf("%s %v: errors differ: %v vs %v", what, sites, werr, gerr)
	}
	if werr == nil && math.Float64bits(want) != math.Float64bits(got) {
		t.Fatalf("%s %v: %v vs %v", what, sites, want, got)
	}
}

func TestTracedPipelineMatchesPipeline(t *testing.T) {
	d := testDataset(t)
	r := rand.New(rand.NewPCG(1, 2))
	empty := 0
	for _, stat := range allStats {
		ref, err := fitness.NewPipeline(d, stat, ehdiall.Config{})
		if err != nil {
			t.Fatal(err)
		}
		tp := newTracedPipeline(d, stat, &layerCounters{}, newRecorder())
		refScr, trScr := fitness.NewScratch(), fitness.NewScratch()
		for i := 0; i < 200; i++ {
			sites := randomSites(r, d.NumSNPs())
			want, werr := ref.EvaluateScratch(sites, refScr)
			got, gerr := tp.EvaluateScratch(sites, trScr)
			sameOutcome(t, stat.String(), sites, want, got, werr, gerr)
			if errors.Is(werr, fitness.ErrEmptyGroup) {
				empty++
			}
		}
		for _, bad := range [][]int{{}, {5, 2}, {1, 1}, {0, d.NumSNPs()}} {
			_, werr := ref.EvaluateScratch(bad, refScr)
			_, gerr := tp.EvaluateScratch(bad, trScr)
			sameOutcome(t, stat.String(), bad, 0, 0, werr, gerr)
		}
	}
	if empty == 0 {
		t.Fatal("no site set hit ErrEmptyGroup")
	}
}

func TestTracedShardEvalMatchesShardEvaluator(t *testing.T) {
	d := testDataset(t)
	r := rand.New(rand.NewPCG(3, 4))
	src, err := shard.NewMem(d, 8, 0) // narrow shards, so site sets span several
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ts := &timingSource{Source: src}
	empty := 0
	for _, stat := range allStats {
		ref, err := shard.NewEvaluator(src, d, stat, ehdiall.Config{})
		if err != nil {
			t.Fatal(err)
		}
		c := &layerCounters{}
		te, err := newTracedShardEval(ts, d, stat, c, newRecorder())
		if err != nil {
			t.Fatal(err)
		}
		refScr, trScr := fitness.NewScratch(), fitness.NewScratch()
		for i := 0; i < 200; i++ {
			sites := randomSites(r, d.NumSNPs())
			want, werr := ref.EvaluateScratch(sites, refScr)
			got, gerr := te.EvaluateScratch(sites, trScr)
			sameOutcome(t, stat.String(), sites, want, got, werr, gerr)
			if errors.Is(werr, fitness.ErrEmptyGroup) {
				empty++
			}
			if ref.KeyFingerprint(sites) != te.KeyFingerprint(sites) {
				t.Fatalf("%v: cache-key fingerprints differ", sites)
			}
		}
		if c.evals.Load() != 200 || c.emptyGroup.Load() == 0 {
			t.Fatalf("counters: %d evaluations, %d empty groups", c.evals.Load(), c.emptyGroup.Load())
		}
	}
	if empty == 0 || ts.calls.Load() == 0 {
		t.Fatalf("%d empty groups, %d shard requests", empty, ts.calls.Load())
	}
}

// TestDecoratorsKeepEngineInterfaces checks the interfaces the engine,
// the session and fitness.EvaluateAllContext type-assert, on the
// decorators as those callers hold them.
func TestDecoratorsKeepEngineInterfaces(t *testing.T) {
	d := testDataset(t)
	var ev fitness.Evaluator = newTracedPipeline(d, clump.T1, &layerCounters{}, newRecorder())
	if _, ok := ev.(fitness.ScratchEvaluator); !ok {
		t.Error("tracedPipeline is not a fitness.ScratchEvaluator")
	}
	src, err := shard.NewMem(d, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var s shard.Source = &timingSource{Source: src}
	se, err := newTracedShardEval(s, d, clump.T1, &layerCounters{}, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	ev = se
	if _, ok := ev.(fitness.ScratchEvaluator); !ok {
		t.Error("tracedShardEval is not a fitness.ScratchEvaluator")
	}
	if _, ok := ev.(engine.KeyFingerprinter); !ok {
		t.Error("tracedShardEval is not an engine.KeyFingerprinter")
	}
	eng, err := engine.New(se, engine.Options{Workers: 2, Fingerprint: d.Fingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ev = newBatchTimer(eng, newRecorder())
	if _, ok := ev.(fitness.ContextBatchEvaluator); !ok {
		t.Error("batchTimer is not a fitness.ContextBatchEvaluator")
	}
	if _, ok := ev.(fitness.BatchEvaluator); !ok {
		t.Error("batchTimer is not a fitness.BatchEvaluator")
	}
	if _, ok := ev.(fitness.Reporter); !ok {
		t.Error("batchTimer is not a fitness.Reporter")
	}
	if _, ok := ev.(interface{ Slaves() int }); !ok {
		t.Error("batchTimer does not report its workers")
	}
}

// TestTracedEngineMatchesShardedEngine runs the same batch through the
// traced stack and repro.NewShardedEngine: values, computed counts and
// cache entries must agree.
func TestTracedEngineMatchesShardedEngine(t *testing.T) {
	d := testDataset(t)
	var batch [][]int
	for s := 0; s+2 <= d.NumSNPs(); s++ {
		batch = append(batch, []int{s, s + 1})
	}
	plain, err := repro.NewShardedEngine(d, repro.T1, 8, "", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	src, err := shard.NewMem(d, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	c := &layerCounters{}
	se, err := newTracedShardEval(&timingSource{Source: src}, d, clump.T1, c, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(se, engine.Options{Workers: 2, Fingerprint: d.Fingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	bt := newBatchTimer(eng, newRecorder())
	bt.startUnit(time.Now())
	for round := 0; round < 2; round++ { // the second round is served from the cache
		want, werrs := plain.EvaluateBatch(batch)
		got, gerrs := bt.EvaluateBatch(batch)
		for i := range batch {
			sameOutcome(t, "batch", batch[i], want[i], got[i], werrs[i], gerrs[i])
		}
	}
	bt.endUnit(time.Now())
	pr, tr := plain.Report(), bt.Report()
	if pr.Computed != tr.Computed || pr.CacheEntries != tr.CacheEntries || tr.Computed != c.evals.Load() {
		t.Fatalf("computed %d/%d, entries %d/%d, traced evaluations %d", pr.Computed, tr.Computed, pr.CacheEntries, tr.CacheEntries, c.evals.Load())
	}
	if bt.batches.Load() != 2 || bt.batchNS.Load() <= 0 || bt.selfNS < 0 {
		t.Fatalf("batch timer: %d batches, %dns, self %dns", bt.batches.Load(), bt.batchNS.Load(), bt.selfNS)
	}
}

func TestTail(t *testing.T) {
	var s samples
	for i := 1; i <= 40; i++ {
		s.add(time.Duration(i))
	}
	if v, p := s.tail(); v != 30 || p != 75 {
		t.Fatalf("tail of 1..40 = %v at p%v, want 30 at p75", v, p)
	}
	if m := s.median(); m != 20 { // (20+21)/2 in integer nanoseconds
		t.Fatalf("median %v", m)
	}
	var many samples
	for i := 1; i <= 5000; i++ {
		many.add(time.Duration(i))
	}
	if v, p := many.tail(); v != 4950 || p != 99 {
		t.Fatalf("tail of 1..5000 = %v at p%v, want 4950 at p99", v, p)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d implemented", len(doc.Workloads), len(workloads))
	}
	for _, c := range []struct {
		what string
		json []entry
		code []metric
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: %d in BENCHMARK.json, %d in code", c.what, len(c.json), len(c.code))
			continue
		}
		for i, m := range c.code {
			if c.json[i].Name != m.name || c.json[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, code has %s %s", c.what, i, c.json[i].Name, c.json[i].Unit, m.name, m.unit)
			}
		}
	}
}
