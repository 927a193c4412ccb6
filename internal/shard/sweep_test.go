package shard

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/clump"
	"repro/internal/ehdiall"
	"repro/internal/fitness"
)

// memSink is a Sink over one in-process checkpoint, with an optional
// per-save hook (used to cancel mid-sweep).
type memSink struct {
	cp     *Checkpoint
	saves  int
	onSave func(saves int)
}

func (s *memSink) Load() (*Checkpoint, error) {
	if s.cp == nil {
		return nil, nil
	}
	clone := *s.cp
	clone.Completed = append([]ShardResult(nil), s.cp.Completed...)
	return &clone, nil
}

func (s *memSink) Save(cp *Checkpoint) error {
	clone := *cp
	clone.Completed = append([]ShardResult(nil), cp.Completed...)
	s.cp = &clone
	s.saves++
	if s.onSave != nil {
		s.onSave(s.saves)
	}
	return nil
}

func sweepEvaluator(t *testing.T, numSNPs, shardSize int) (*Evaluator, Plan) {
	t.Helper()
	d := testDataset(t, numSNPs)
	src, err := NewMem(d, shardSize, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	ev, err := NewEvaluator(src, d, clump.T4, ehdiall.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return ev, src.Plan()
}

// bruteBest scores every window monolithically and returns the best
// site set and fitness (first window wins ties, matching the sweep's
// lower-anchor-wins rule) plus the window count.
func bruteBest(t *testing.T, numSNPs int, cfg SweepConfig) ([]int, float64, int) {
	t.Helper()
	d := testDataset(t, numSNPs)
	pipe, err := fitness.NewPipeline(d, clump.T4, ehdiall.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.withDefaults()
	var best []int
	bestV := 0.0
	n := 0
	for s := 0; s+cfg.Size <= numSNPs; s += cfg.Stride {
		w := make([]int, cfg.Size)
		for i := range w {
			w[i] = s + i
		}
		n++
		v, err := pipe.Evaluate(w)
		if err != nil {
			if errors.Is(err, fitness.ErrEmptyGroup) {
				continue
			}
			t.Fatal(err)
		}
		if best == nil || v > bestV {
			best, bestV = w, v
		}
	}
	return best, bestV, n
}

func TestSweepMatchesBruteForce(t *testing.T) {
	for _, cfg := range []SweepConfig{{}, {Size: 3, Stride: 2}} {
		ev, plan := sweepEvaluator(t, 51, 8)
		res, err := RunSweep(context.Background(), ev, plan, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantSites, wantV, wantN := bruteBest(t, 51, cfg)
		if res.TotalWindows != wantN {
			t.Fatalf("cfg %+v: %d windows, want %d", cfg, res.TotalWindows, wantN)
		}
		if res.Done != plan.NumShards() || res.Resumed != 0 {
			t.Fatalf("cfg %+v: done %d resumed %d", cfg, res.Done, res.Resumed)
		}
		if !reflect.DeepEqual(res.Best.Best, wantSites) || res.Best.Fitness != wantV {
			t.Fatalf("cfg %+v: best %v/%v, want %v/%v",
				cfg, res.Best.Best, res.Best.Fitness, wantSites, wantV)
		}
		if res.Evaluated != int64(wantN) {
			t.Fatalf("cfg %+v: evaluated %d, want %d", cfg, res.Evaluated, wantN)
		}
		// Each shard's best window is its own copy, not a view of the
		// shard's window array.
		for _, sr := range res.PerShard {
			if size := cfg.withDefaults().Size; sr.Best != nil && cap(sr.Best) != size {
				t.Fatalf("cfg %+v: shard %d best has cap %d, want %d", cfg, sr.Shard, cap(sr.Best), size)
			}
		}
	}
}

// TestWindowsOf checks windowsOf against a window-by-window enumeration
// on every shard of a few plans and strides, and bounds its allocations
// at two per shard, the window headers and one array of sites.
func TestWindowsOf(t *testing.T) {
	for _, cfg := range []SweepConfig{{Size: 2, Stride: 1}, {Size: 3, Stride: 2}, {Size: 5, Stride: 3}, {Size: 9, Stride: 1}} {
		for _, shardSize := range []int{4, 8, 64} {
			plan, err := NewPlan(1, 30, 10, shardSize)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range plan.Metas {
				var want [][]int
				for s := m.Start; s < m.End && s+cfg.Size <= plan.NumSNPs; s++ {
					if s%cfg.Stride != 0 {
						continue
					}
					w := make([]int, cfg.Size)
					for i := range w {
						w[i] = s + i
					}
					want = append(want, w)
				}
				got := windowsOf(m, plan, cfg)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cfg %+v shard %v: windows %v, want %v", cfg, m, got, want)
				}
				for _, w := range got {
					if cap(w) != cfg.Size {
						t.Fatalf("cfg %+v shard %v: window cap %d, want %d", cfg, m, cap(w), cfg.Size)
					}
				}
				if allocs := testing.AllocsPerRun(10, func() { windowsOf(m, plan, cfg) }); allocs > 2 {
					t.Fatalf("cfg %+v shard %v: windowsOf allocates %.0f, want at most 2", cfg, m, allocs)
				}
			}
		}
	}
}

// TestSweepBestIndependentOfShardSize pins the global window anchoring:
// the same dataset swept at different shard sizes lands on the same
// best window, bit for bit.
func TestSweepBestIndependentOfShardSize(t *testing.T) {
	var ref *SweepResult
	for _, shardSize := range []int{4, 8, 51, 64} {
		ev, plan := sweepEvaluator(t, 51, shardSize)
		res, err := RunSweep(context.Background(), ev, plan, SweepConfig{Size: 2}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res.Best.Best, ref.Best.Best) || res.Best.Fitness != ref.Best.Fitness {
			t.Fatalf("shard size %d: best %v/%v, want %v/%v",
				shardSize, res.Best.Best, res.Best.Fitness, ref.Best.Best, ref.Best.Fitness)
		}
		if res.TotalWindows != ref.TotalWindows {
			t.Fatalf("shard size %d: %d windows, want %d", shardSize, res.TotalWindows, ref.TotalWindows)
		}
	}
}

// TestSweepResume is the restart contract: cancel mid-run, resume from
// the checkpoint, and the second life evaluates strictly fewer windows
// while producing the identical final result.
func TestSweepResume(t *testing.T) {
	cfg := SweepConfig{Size: 2}

	// Uninterrupted reference run.
	ev, plan := sweepEvaluator(t, 51, 8)
	ref, err := RunSweep(context.Background(), ev, plan, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Life 1: cancel after 3 checkpointed shards.
	ctx, cancel := context.WithCancel(context.Background())
	sink := &memSink{onSave: func(saves int) {
		if saves == 3 {
			cancel()
		}
	}}
	ev1, _ := sweepEvaluator(t, 51, 8)
	partial, err := RunSweep(ctx, ev1, plan, cfg, sink, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("life 1: err %v, want context.Canceled", err)
	}
	if partial.Done != 3 || len(sink.cp.Completed) != 3 {
		t.Fatalf("life 1: done %d, checkpointed %d, want 3", partial.Done, len(sink.cp.Completed))
	}

	// Life 2: fresh evaluator, same sink.
	sink.onSave = nil
	ev2, _ := sweepEvaluator(t, 51, 8)
	var statuses []SweepStatus
	res, err := RunSweep(context.Background(), ev2, plan, cfg, sink, func(st SweepStatus) {
		statuses = append(statuses, st)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != 3 {
		t.Fatalf("life 2: resumed %d shards, want 3", res.Resumed)
	}
	if res.Evaluated >= ref.Evaluated || res.Evaluated <= 0 {
		t.Fatalf("life 2 evaluated %d windows, want strictly between 0 and %d", res.Evaluated, ref.Evaluated)
	}
	if res.Evaluated+partial.Evaluated != ref.Evaluated {
		t.Fatalf("lives evaluated %d+%d windows, reference %d", partial.Evaluated, res.Evaluated, ref.Evaluated)
	}
	if !reflect.DeepEqual(res.Best, ref.Best) {
		t.Fatalf("life 2 best %+v, reference %+v", res.Best, ref.Best)
	}
	if !reflect.DeepEqual(res.PerShard, ref.PerShard) {
		t.Fatalf("life 2 per-shard results differ from reference")
	}
	if res.Done != plan.NumShards() || res.TotalWindows != ref.TotalWindows {
		t.Fatalf("life 2: done %d windows %d, want %d/%d", res.Done, res.TotalWindows, plan.NumShards(), ref.TotalWindows)
	}
	if len(statuses) != plan.NumShards()-3 {
		t.Fatalf("observer saw %d updates, want %d", len(statuses), plan.NumShards()-3)
	}
	last := statuses[len(statuses)-1]
	if last.ShardsDone != plan.NumShards() || last.Evaluated != res.Evaluated {
		t.Fatalf("final status %+v inconsistent with result", last)
	}
}

// TestSweepIgnoresForeignCheckpoint: a checkpoint from a different
// plan or config must not poison a sweep.
func TestSweepIgnoresForeignCheckpoint(t *testing.T) {
	cfg := SweepConfig{Size: 2}
	ev, plan := sweepEvaluator(t, 51, 8)
	foreign := NewCheckpoint(plan, SweepConfig{Size: 3}) // different window set
	foreign.Completed = []ShardResult{{Shard: 0, Windows: 999}}
	sink := &memSink{cp: foreign}
	res, err := RunSweep(context.Background(), ev, plan, cfg, sink, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != 0 || res.Done != plan.NumShards() {
		t.Fatalf("foreign checkpoint was resumed: %+v", res)
	}
	if !sink.cp.Matches(plan, cfg) {
		t.Fatal("saved checkpoint does not match the sweep that wrote it")
	}
}

func TestMergeCompleted(t *testing.T) {
	a := []ShardResult{{Shard: 2, Windows: 5}, {Shard: 0, Windows: 1}}
	b := []ShardResult{{Shard: 2, Windows: 99}, {Shard: 3, Windows: 7}}
	got := MergeCompleted(a, b)
	want := []ShardResult{{Shard: 0, Windows: 1}, {Shard: 2, Windows: 5}, {Shard: 3, Windows: 7}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MergeCompleted = %+v, want %+v", got, want)
	}
}

func TestSweepValidation(t *testing.T) {
	ev, plan := sweepEvaluator(t, 20, 8)
	if _, err := RunSweep(context.Background(), nil, plan, SweepConfig{}, nil, nil); err == nil {
		t.Fatal("nil evaluator accepted")
	}
	if _, err := RunSweep(context.Background(), ev, plan, SweepConfig{Size: -1}, nil, nil); err == nil {
		t.Fatal("negative window size accepted")
	}
	if err := (SweepConfig{Size: ehdiall.MaxSNPs + 1}).Validate(); err == nil {
		t.Fatal("oversized window accepted")
	}
}
