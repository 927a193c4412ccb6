package repro_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro"
	"repro/internal/testleak"
)

// longRunConfig is a configuration that keeps the GA busy long enough
// to cancel it deterministically mid-run.
func longRunConfig(seed uint64) repro.GAConfig {
	cfg := backendTestConfig()
	cfg.Seed = seed
	cfg.StagnationLimit = 100000
	cfg.MaxGenerations = 100000
	return cfg
}

// TestSessionCancelStopsWithinOneGeneration: under every backend, a
// context cancelled in generation N's trace stops the run with exactly
// N completed generations and a usable partial result.
func TestSessionCancelStopsWithinOneGeneration(t *testing.T) {
	d := backendTestDataset(t)
	for _, bc := range []struct {
		name    string
		backend repro.Backend
	}{
		{"native", repro.BackendNative},
		{"pool", repro.BackendPool},
		{"pvm", repro.BackendPVM},
	} {
		t.Run(bc.name, func(t *testing.T) {
			testleak.Check(t)
			s, err := repro.NewSession(d, repro.WithBackend(bc.backend), repro.WithWorkers(3))
			if err != nil {
				t.Fatal(err)
			}
			const cancelAt = 2
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			res, err := s.Run(ctx,
				repro.WithGAConfig(longRunConfig(5)),
				repro.WithTrace(func(e repro.TraceEntry) {
					if e.Generation == cancelAt {
						cancel()
					}
				}))
			if !errors.Is(err, repro.ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want the context error in the chain", err)
			}
			if res == nil {
				t.Fatal("cancelled run returned no partial result")
			}
			if res.Generations != cancelAt {
				t.Fatalf("completed %d generations, want %d (stop within one generation of cancel)",
					res.Generations, cancelAt)
			}
			if len(res.BestBySize) == 0 {
				t.Fatal("partial result carries no per-size bests")
			}
			s.Close()
		})
	}
}

func TestSessionDeadlineWrapsErrCanceled(t *testing.T) {
	d := backendTestDataset(t)
	s, err := repro.NewSession(d, repro.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	res, err := s.Run(ctx, repro.WithGAConfig(longRunConfig(5)))
	if !errors.Is(err, repro.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
	if res == nil {
		t.Fatal("deadline-stopped run returned no result")
	}
}

// TestJobStopYieldsPartialResult: a background Job stopped mid-run
// returns a usable partial result in bounded time, closes its progress
// stream, and leaks no goroutines.
func TestJobStopYieldsPartialResult(t *testing.T) {
	testleak.Check(t)
	d := backendTestDataset(t)
	s, err := repro.NewSession(d, repro.WithWorkers(2),
		repro.WithGAConfig(longRunConfig(7)))
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Let at least two generations stream, then stop.
	seen := 0
	for e := range job.Progress() {
		if e.Generation < 1 {
			t.Fatalf("trace entry with generation %d", e.Generation)
		}
		seen++
		if seen == 2 {
			break
		}
	}
	rep := job.Report()
	if !rep.Running || rep.Generation < 1 || rep.Evaluations <= 0 {
		t.Fatalf("live report %+v, want a running job past generation 1", rep)
	}
	if rep.Engine == nil || rep.Engine.Requests <= 0 {
		t.Fatalf("live report lacks engine counters: %+v", rep.Engine)
	}
	type stopOutcome struct {
		res *repro.GAResult
		err error
	}
	done := make(chan stopOutcome, 1)
	go func() {
		res, err := job.Stop()
		done <- stopOutcome{res, err}
	}()
	var oc stopOutcome
	select {
	case oc = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Job.Stop did not return in bounded time")
	}
	if !errors.Is(oc.err, repro.ErrCanceled) {
		t.Fatalf("Stop err = %v, want ErrCanceled", oc.err)
	}
	if oc.res == nil || len(oc.res.BestBySize) == 0 || oc.res.Generations < 1 {
		t.Fatalf("Stop returned unusable partial result: %+v", oc.res)
	}
	// The stream must drain and close, the snapshot must settle.
	for range job.Progress() {
	}
	if rep := job.Report(); rep.Running {
		t.Fatal("report still Running after Stop")
	}
	// Wait is stable across repeated calls.
	res2, err2 := job.Wait()
	if res2 != oc.res || !errors.Is(err2, repro.ErrCanceled) {
		t.Fatal("Wait after Stop returned a different outcome")
	}
	s.Close()
}

// TestJobCompletionStreamsProgress: an uncancelled Job streams ordered
// progress entries, closes the stream, and Wait matches a synchronous
// run bit for bit.
func TestJobCompletionStreamsProgress(t *testing.T) {
	d := backendTestDataset(t)
	cfg := backendTestConfig()
	s, err := repro.NewSession(d, repro.WithWorkers(2), repro.WithGAConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	job, err := s.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	last := 0
	entries := 0
	for e := range job.Progress() {
		if e.Generation <= last {
			t.Fatalf("progress out of order: %d after %d", e.Generation, last)
		}
		last = e.Generation
		entries++
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if entries == 0 || last != res.Generations {
		t.Fatalf("streamed %d entries ending at gen %d, result has %d generations",
			entries, last, res.Generations)
	}
	// The same seed run synchronously is bit-identical.
	ref, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "job-vs-run", ref, res)
}

func TestSessionCachePersistsAcrossRuns(t *testing.T) {
	d := backendTestDataset(t)
	s, err := repro.NewSession(d, repro.WithWorkers(2), repro.WithGAConfig(backendTestConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	first, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep1, ok := s.Report()
	if !ok {
		t.Fatal("native session has no report")
	}
	second, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep2, _ := s.Report()
	assertSameResult(t, "run2-vs-run1", first, second)
	if rep2.Computed != rep1.Computed {
		t.Fatalf("second identical run computed %d new evaluations; the session cache should have served all %d",
			rep2.Computed-rep1.Computed, rep2.Requests-rep1.Requests)
	}
	if rep2.CacheHits <= rep1.CacheHits {
		t.Fatal("second run produced no additional cache hits")
	}
}

func TestOptionValidation(t *testing.T) {
	d := backendTestDataset(t)

	// The Statistic zero value is rejected, never silently defaulted.
	if _, err := repro.NewSession(d, repro.WithStatistic(0)); !errors.Is(err, repro.ErrBadConfig) {
		t.Fatalf("WithStatistic(0): err = %v, want ErrBadConfig", err)
	}
	if _, err := repro.NewSession(d, repro.WithBackend(repro.Backend(42))); !errors.Is(err, repro.ErrBadConfig) {
		t.Fatalf("bad backend: err = %v, want ErrBadConfig", err)
	}
	if _, err := repro.NewSession(d, repro.WithWorkers(-1)); !errors.Is(err, repro.ErrBadConfig) {
		t.Fatalf("negative workers: err = %v, want ErrBadConfig", err)
	}
	if _, err := repro.NewSession(nil); !errors.Is(err, repro.ErrBadDataset) {
		t.Fatalf("nil dataset: err = %v, want ErrBadDataset", err)
	}

	s, err := repro.NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Statistic() != repro.DefaultStatistic || s.Statistic() != repro.T1 {
		t.Fatalf("default statistic = %v, want T1", s.Statistic())
	}
	// Backend-shaping options are rejected at run level.
	for name, opt := range map[string]repro.Option{
		"WithStatistic": repro.WithStatistic(repro.T2),
		"WithBackend":   repro.WithBackend(repro.BackendPool),
		"WithWorkers":   repro.WithWorkers(2),
	} {
		if _, err := s.Run(context.Background(), opt); !errors.Is(err, repro.ErrBadConfig) {
			t.Fatalf("%s at run level: err = %v, want ErrBadConfig", name, err)
		}
	}
	// An invalid GAConfig surfaces as ErrBadConfig.
	if _, err := s.Run(context.Background(), repro.WithGAConfig(repro.GAConfig{MinSize: 5, MaxSize: 3})); !errors.Is(err, repro.ErrBadConfig) {
		t.Fatalf("bad GAConfig: err = %v, want ErrBadConfig", err)
	}
}

// TestCloseUnderRunningJobSurfacesError: closing the session while a
// job runs must not let the starved GA report a bogus convergence —
// the job ends with an error wrapping ErrSessionClosed. The search
// space must dwarf what the cache can absorb before Close, or the run
// could legitimately finish on cached values alone.
func TestCloseUnderRunningJobSurfacesError(t *testing.T) {
	d, err := repro.GenerateDataset(repro.GeneratorConfig{
		NumSNPs: 40, NumAffected: 30, NumUnaffected: 30,
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
	s, err := repro.NewSession(d, repro.WithWorkers(2),
		repro.WithGAConfig(longRunConfig(9)))
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Let the run get going, then pull the backend out from under it.
	for e := range job.Progress() {
		if e.Generation >= 1 {
			break
		}
	}
	s.Close()
	res, err := job.Wait()
	if !errors.Is(err, repro.ErrSessionClosed) {
		t.Fatalf("err = %v, want ErrSessionClosed (not a silent bogus convergence)", err)
	}
	if res == nil {
		t.Fatal("no partial result from the interrupted job")
	}
	if res.Converged {
		t.Fatal("starved run reported convergence")
	}
}

func TestClosedSessionRejectsRuns(t *testing.T) {
	d := backendTestDataset(t)
	s, err := repro.NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("Close is not idempotent")
	}
	if _, err := s.Run(context.Background(), repro.WithGAConfig(backendTestConfig())); !errors.Is(err, repro.ErrSessionClosed) {
		t.Fatalf("Run on closed session: err = %v, want ErrSessionClosed", err)
	}
	if _, err := s.Start(context.Background(), repro.WithGAConfig(backendTestConfig())); !errors.Is(err, repro.ErrSessionClosed) {
		t.Fatalf("Start on closed session: err = %v, want ErrSessionClosed", err)
	}
}

// TestWithEvaluatorSession: a session over a caller-owned engine runs
// on it without taking ownership — Close leaves the engine usable —
// and WithStatistic may accompany WithEvaluator as a declaration while
// WithBackend/WithWorkers may not.
func TestWithEvaluatorSession(t *testing.T) {
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
	if _, err := s.Run(context.Background(), repro.WithGAConfig(backendTestConfig())); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Evaluate([]int{0, 1}); err != nil {
		t.Fatalf("session Close closed the caller-owned engine: %v", err)
	}

	// WithStatistic may accompany WithEvaluator as a declaration;
	// WithBackend/WithWorkers may not.
	s2, err := repro.NewSession(d, repro.WithEvaluator(eng), repro.WithStatistic(repro.T1))
	if err != nil {
		t.Fatalf("WithStatistic alongside WithEvaluator: %v", err)
	}
	if s2.Statistic() != repro.T1 {
		t.Fatalf("declared statistic = %v, want T1", s2.Statistic())
	}
	s2.Close()
	if _, err := repro.NewSession(d, repro.WithEvaluator(eng), repro.WithWorkers(2)); !errors.Is(err, repro.ErrBadConfig) {
		t.Fatalf("WithWorkers alongside WithEvaluator: err = %v, want ErrBadConfig", err)
	}
}
