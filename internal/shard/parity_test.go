package shard

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/clump"
	"repro/internal/ehdiall"
	"repro/internal/engine"
	"repro/internal/fitness"
	"repro/internal/genotype"
)

// windowsUpTo enumerates every strictly increasing site set of width 2
// and 3 (stride 3 on the anchors to keep the test quick but crossing
// shard boundaries).
func windowsUpTo(n int) [][]int {
	var out [][]int
	for s := 0; s+1 < n; s += 3 {
		out = append(out, []int{s, s + 1})
		if s+2 < n {
			out = append(out, []int{s, s + 1, s + 2})
		}
	}
	// A few wide sets spanning several shards.
	if n > 20 {
		out = append(out,
			[]int{0, 7, 15},
			[]int{1, 9, 17, n - 1},
			[]int{2, n / 2, n - 2},
		)
	}
	return out
}

// TestEvaluatorParity proves the headline invariant: the sharded
// packed evaluator returns bit-identical values to the byte reference
// pipeline (the test oracle) and the same Details as the monolithic
// pipeline for every statistic (including AA), over both in-memory and
// spill-backed sources, including the boundary-spanning site sets of
// windowsUpTo.
func TestEvaluatorParity(t *testing.T) {
	d := testDataset(t, 51)
	sources := map[string]func() (Source, error){
		"mem":   func() (Source, error) { return NewMem(d, 8, 3) },
		"spill": func() (Source, error) { return NewSpill(d, t.TempDir(), 8, 3) },
	}
	for _, stat := range clump.All() {
		oracle, err := fitness.NewPipelineKernel(d, stat, ehdiall.Config{}, false)
		if err != nil {
			t.Fatal(err)
		}
		mono, err := fitness.NewPipeline(d, stat, ehdiall.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for name, mk := range sources {
			src, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			ev, err := NewEvaluator(src, d, stat, ehdiall.Config{})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range windowsUpTo(51) {
				want, werr := oracle.Evaluate(w)
				got, gerr := ev.Evaluate(w)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%s/%v sites %v: err %v vs %v", name, stat, w, werr, gerr)
				}
				if werr == nil && math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s/%v sites %v: sharded %v != byte oracle %v", name, stat, w, got, want)
				}
				wantD, werr := mono.Details(w)
				gotD, gerr := ev.Details(w)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%s/%v sites %v: Details err %v vs %v", name, stat, w, werr, gerr)
				}
				if werr == nil && !reflect.DeepEqual(gotD, wantD) {
					t.Fatalf("%s/%v sites %v: sharded Details %+v != monolithic %+v", name, stat, w, gotD, wantD)
				}
			}
			src.Close()
		}
	}
}

// TestEvaluatorScratchAllocFree pins the sharded packed path at zero
// allocations per candidate in steady state: once a warmup call has
// sized the worker's scratch and the touched shards are resident,
// gathering packed words and estimating must not touch the heap —
// including site sets spanning a shard boundary.
func TestEvaluatorScratchAllocFree(t *testing.T) {
	d := testDataset(t, 51)
	src, err := NewMem(d, 8, 0) // unbounded hot set: no eviction churn mid-measurement
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ev, err := NewEvaluator(src, d, clump.T2, ehdiall.Config{})
	if err != nil {
		t.Fatal(err)
	}
	scr := fitness.NewScratch()
	inShard := []int{1, 3, 5, 7}
	spanning := []int{6, 9, 17, 25, 33, 48}
	for _, w := range [][]int{inShard, spanning} {
		if _, err := ev.EvaluateScratch(w, scr); err != nil {
			t.Fatalf("warmup %v: %v", w, err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, w := range [][]int{inShard, spanning} {
			if _, err := ev.EvaluateScratch(w, scr); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("EvaluateScratch allocates %.1f/iteration, want 0", allocs)
	}
}

// TestEvaluatorRejectsBadSites mirrors the pipeline's input contract.
func TestEvaluatorRejectsBadSites(t *testing.T) {
	d := testDataset(t, 20)
	src, err := NewMem(d, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ev, err := NewEvaluator(src, d, clump.T1, ehdiall.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int{nil, {}, {3, 3}, {5, 4}, {-1, 2}, {0, 20}, make([]int, ehdiall.MaxSNPs+1)} {
		if _, err := ev.Evaluate(bad); err == nil {
			t.Fatalf("Evaluate(%v) succeeded", bad)
		}
	}
}

// TestEvaluatorChecksSourceDataset: NewEvaluator takes a source this
// package built from the very dataset it is given without hashing the
// table again, and still tells any other dataset apart. A source over a
// second dataset of the same dimensions but one different genotype is
// rejected; one over an equal copy of the dataset is accepted, by its
// fingerprint.
func TestEvaluatorChecksSourceDataset(t *testing.T) {
	d := testDataset(t, 20)
	same := testDataset(t, 20)
	other := testDataset(t, 20)
	g := &other.Individuals[0].Genotypes[0]
	*g = (*g + 1) % 3
	for name, open := range map[string]func(*genotype.Dataset) (Source, error){
		"mem":   func(x *genotype.Dataset) (Source, error) { return NewMem(x, 8, 0) },
		"spill": func(x *genotype.Dataset) (Source, error) { return NewSpill(x, t.TempDir(), 8, 0) },
	} {
		for _, c := range []struct {
			what string
			data *genotype.Dataset
			ok   bool
		}{{"own", d, true}, {"copy", same, true}, {"other", other, false}} {
			src, err := open(c.data)
			if err != nil {
				t.Fatal(err)
			}
			_, err = NewEvaluator(src, d, clump.T1, ehdiall.Config{})
			src.Close()
			if (err == nil) != c.ok {
				t.Fatalf("%s source over the %s dataset: NewEvaluator error %v, want ok %v", name, c.what, err, c.ok)
			}
		}
	}
}

// TestEngineParity wraps both evaluators in the batch engine and
// checks EvaluateBatch agrees entry for entry, including with the memo
// cache warm (second pass re-reads cached values keyed by shard
// fingerprints).
func TestEngineParity(t *testing.T) {
	d := testDataset(t, 51)
	src, err := NewMem(d, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ev, err := NewEvaluator(src, d, clump.T4, ehdiall.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := engine.New(ev, engine.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	mono, err := engine.NewForDataset(d, clump.T4, engine.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer mono.Close()

	batch := windowsUpTo(51)
	for pass := 0; pass < 2; pass++ {
		wantV, wantE := mono.EvaluateBatch(batch)
		gotV, gotE := sharded.EvaluateBatch(batch)
		for i := range batch {
			if (wantE[i] == nil) != (gotE[i] == nil) {
				t.Fatalf("pass %d sites %v: err %v vs %v", pass, batch[i], wantE[i], gotE[i])
			}
			if wantE[i] == nil && gotV[i] != wantV[i] {
				t.Fatalf("pass %d sites %v: sharded %v != monolithic %v", pass, batch[i], gotV[i], wantV[i])
			}
		}
	}
	if hits := sharded.Report().CacheHits; hits == 0 {
		t.Fatal("second pass produced no cache hits")
	}
}

// TestKeyFingerprint checks the shard-derived cache fingerprint:
// stable, sensitive to which shards are touched, and insensitive to
// which sites inside a shard (sites are the rest of the cache key).
func TestKeyFingerprint(t *testing.T) {
	d := testDataset(t, 51)
	src, err := NewMem(d, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ev, err := NewEvaluator(src, d, clump.T1, ehdiall.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ev.KeyFingerprint([]int{0, 1}) != ev.KeyFingerprint([]int{2, 5}) {
		t.Fatal("same-shard site sets disagree on fingerprint")
	}
	if ev.KeyFingerprint([]int{0, 1}) == ev.KeyFingerprint([]int{8, 9}) {
		t.Fatal("different shards share a fingerprint")
	}
	if ev.KeyFingerprint([]int{0, 8}) == ev.KeyFingerprint([]int{0, 16}) {
		t.Fatal("different shard combinations share a fingerprint")
	}
	if ev.KeyFingerprint([]int{3, 9}) != ev.KeyFingerprint([]int{3, 9}) {
		t.Fatal("fingerprint not deterministic")
	}
	var _ engine.KeyFingerprinter = ev
}
