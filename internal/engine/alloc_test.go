package engine

import (
	"testing"

	"repro/internal/clump"
	"repro/internal/popgen"
)

// TestBatchAllocBound pins the engine batch path's per-candidate
// allocation budget. The kernel work itself is allocation-free (each
// worker owns a fitness.Scratch for its lifetime), and the batch
// bookkeeping allocates per batch, not per candidate: the result
// slices, one table of distinct sets, the batch index, the key arena
// and the dedupe table. A hit is one probe of the cache's slot table,
// which allocates nothing. A warm batch must not regress to a per-key
// string or map entry, let alone to per-evaluation table construction
// (hundreds of allocations each).
func TestBatchAllocBound(t *testing.T) {
	d, err := popgen.Generate(popgen.Config{
		NumSNPs: 40, NumAffected: 25, NumUnaffected: 25,
		RiskHaplotypeFreq: 0.3,
		Disease: popgen.DiseaseModel{
			CausalSites: []int{2, 7}, RiskAlleles: []uint8{1, 1},
			BaseRisk: 0.15, HaplotypeEffect: 0.6,
		},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One worker: no cross-goroutine allocation attribution noise in
	// AllocsPerRun (worker allocations on other goroutines would not be
	// counted anyway; with the scratch path there are none to miss).
	e, err := NewForDataset(d, clump.T1, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const batchSize = 64
	batch := make([][]int, batchSize)
	for i := range batch {
		batch[i] = []int{i % 37, i%37 + 2, (i+i%3)%37 + 3}
	}
	// Warm the memo cache so the measured passes are pure bookkeeping:
	// the steady state of a converging GA re-scoring known candidates.
	if _, errs := e.EvaluateBatch(batch); errs[0] != nil {
		t.Fatalf("warmup: %v", errs[0])
	}
	perBatch := testing.AllocsPerRun(20, func() {
		values, errs := e.EvaluateBatch(batch)
		for i := range errs {
			if errs[i] != nil {
				t.Fatalf("item %d: %v", i, errs[i])
			}
		}
		_ = values
	})
	perCandidate := perBatch / batchSize
	t.Logf("warm batch path: %.2f allocations/candidate", perCandidate)
	// Measured 0.11/candidate on linux/amd64: the batch's 7 allocations
	// over 64 candidates, with no key string (cache lookups read the
	// key arena) and no map entry (dedupe probes its own table). Five
	// more allocations per batch, or one per candidate anywhere on the
	// path, cross 0.2.
	if perCandidate > 0.2 {
		t.Errorf("warm batch path allocates %.2f/candidate (%.0f/batch), want <= 0.2", perCandidate, perBatch)
	}
}

// TestColdBatchAllocBound pins the per-candidate allocation budget of
// the cold path TestBatchAllocBound does not reach: every candidate is
// a leader miss that is queued, claimed by a worker, computed and
// published. The kernel allocates nothing (the worker's Scratch); what
// remains is the batch bookkeeping plus the growth of the cache
// shards' tables, and the dispatch itself must add nothing per
// candidate.
func TestColdBatchAllocBound(t *testing.T) {
	d, err := popgen.Generate(popgen.Config{
		NumSNPs: 400, NumAffected: 25, NumUnaffected: 25,
		RiskHaplotypeFreq: 0.3,
		Disease: popgen.DiseaseModel{
			CausalSites: []int{2, 7}, RiskAlleles: []uint8{1, 1},
			BaseRisk: 0.15, HaplotypeEffect: 0.6,
		},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewForDataset(d, clump.T1, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// AllocsPerRun calls the function runs+1 times; build every batch
	// up front so each call scores 64 sets the engine has never seen.
	const batchSize, runs = 64, 20
	batches := make([][][]int, runs+1)
	for r := range batches {
		batches[r] = make([][]int, batchSize)
		for j := range batches[r] {
			n := r*batchSize + j
			a := n % 390
			batches[r][j] = []int{a, a + 1 + n/390}
		}
	}
	call := 0
	perBatch := testing.AllocsPerRun(runs, func() {
		_, errs := e.EvaluateBatch(batches[call])
		call++
		for i := range errs {
			if errs[i] != nil {
				t.Fatalf("item %d: %v", i, errs[i])
			}
		}
	})
	if r := e.Report(); r.CacheHits != 0 || r.Computed != r.Requests {
		t.Fatalf("report %+v: want every candidate computed, none cached", r)
	}
	perCandidate := perBatch / batchSize
	t.Logf("cold batch path: %.2f allocations/candidate", perCandidate)
	// Measured 0.58/candidate on linux/amd64. Most of it is the growth
	// of the 64 cache shards as their first ~21 keys each arrive: the
	// slot table and arena made at a shard's first key, one table
	// doubling, one arena doubling, and the flight table and its free
	// list growing to the shard's most keys in flight at once. The
	// rest is per batch: the warm path's tables, the job and its done
	// latch. A key copies into its shard's arena, and a flight nobody
	// follows has no channel. A per-candidate allocation (a key string,
	// channel, flight record or job of its own) crosses 0.75.
	if perCandidate > 0.75 {
		t.Errorf("cold batch path allocates %.2f/candidate (%.0f/batch), want <= 0.75", perCandidate, perBatch)
	}
}
