package repro_test

import (
	"context"
	"errors"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/baseline"
	"repro/internal/testleak"
)

// raceTestConfig keeps GA race lanes short and deterministic.
func raceTestConfig(seed uint64) repro.GAConfig {
	cfg := backendTestConfig()
	cfg.Seed = seed
	return cfg
}

// bestOfResult reduces a GAResult the same way a race lane does: the
// best haplotype across sizes, smallest size winning ties.
func bestOfResult(res *repro.GAResult) (float64, []int) {
	best := math.Inf(-1)
	var sites []int
	sizes := make([]int, 0, len(res.BestBySize))
	for size := range res.BestBySize {
		sizes = append(sizes, size)
	}
	sort.Ints(sizes)
	for _, size := range sizes {
		if h := res.BestBySize[size]; h != nil && h.Fitness > best {
			best = h.Fitness
			sites = h.Sites
		}
	}
	return best, sites
}

func laneByName(t *testing.T, lanes []repro.RaceLaneStatus, name string) repro.RaceLaneStatus {
	t.Helper()
	for _, ln := range lanes {
		if ln.Name == name {
			return ln
		}
	}
	t.Fatalf("lane %q not on leaderboard: %+v", name, lanes)
	return repro.RaceLaneStatus{}
}

// TestRaceWinnerBitIdenticalToSoloRun: a GA lane that completes inside
// a race must report exactly the result the same configuration
// produces running alone on a fresh session — racing shares the
// backend, never the search.
func TestRaceWinnerBitIdenticalToSoloRun(t *testing.T) {
	testleak.Check(t)
	d := backendTestDataset(t)
	cfg := raceTestConfig(7)

	s, err := repro.NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	job, err := s.Race(context.Background(), repro.RaceSpec{
		Lanes: []repro.RaceLaneSpec{
			{Optimizer: "ga", Statistic: "T1"},
			{Optimizer: "stpga", Statistic: "T1"},
		},
		SubsetSize: 3,
		Config:     &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	gaLane := laneByName(t, res.Lanes, "ga/T1")
	if gaLane.State != repro.RaceLaneDone {
		t.Fatalf("ga lane state = %q, want done", gaLane.State)
	}

	solo, err := repro.NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	soloRes, err := solo.Run(context.Background(), repro.WithGAConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	wantF, wantSites := bestOfResult(soloRes)
	if gaLane.BestFitness != wantF {
		t.Fatalf("race lane fitness = %v, solo = %v", gaLane.BestFitness, wantF)
	}
	if len(gaLane.BestSites) != len(wantSites) {
		t.Fatalf("race lane sites = %v, solo = %v", gaLane.BestSites, wantSites)
	}
	for i := range wantSites {
		if gaLane.BestSites[i] != wantSites[i] {
			t.Fatalf("race lane sites = %v, solo = %v", gaLane.BestSites, wantSites)
		}
	}

	// The stpga lane must likewise match its standalone run.
	eng, err := repro.NewEngine(d, repro.T1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ge, err := baseline.GreedyExchange(eng, d.NumSNPs(), 3, baseline.GreedyExchangeConfig{Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	stLane := laneByName(t, res.Lanes, "stpga/T1")
	if stLane.State != repro.RaceLaneDone {
		t.Fatalf("stpga lane state = %q, want done", stLane.State)
	}
	if stLane.BestFitness != ge.BestFitness {
		t.Fatalf("race stpga fitness = %v, solo = %v", stLane.BestFitness, ge.BestFitness)
	}
}

// TestRaceCheaperThanSequential is the acceptance benchmark's test
// form: racing 4 lanes (2 optimizers x 2 statistics) over one session
// performs strictly fewer backend evaluations than running the same 4
// configurations sequentially on fresh sessions, because lanes on the
// same statistic share one memoizing engine.
func TestRaceCheaperThanSequential(t *testing.T) {
	testleak.Check(t)
	d := backendTestDataset(t)
	cfg := raceTestConfig(11)
	const subset = 3

	s, err := repro.NewSession(d, repro.WithStatistic(repro.T1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	job, err := s.Race(context.Background(), repro.RaceSpec{
		Lanes: []repro.RaceLaneSpec{
			{Optimizer: "ga", Statistic: "T1"},
			{Optimizer: "stpga", Statistic: "T1"},
			{Optimizer: "ga", Statistic: "AA"},
			{Optimizer: "stpga", Statistic: "AA"},
		},
		SubsetSize: subset,
		Config:     &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	rep := job.Report()
	if rep.Engine == nil {
		t.Fatal("race report carries no engine counters")
	}
	raced := rep.Engine.Computed

	var sequential int64
	for _, stat := range []repro.Statistic{repro.T1, repro.AA} {
		solo, err := repro.NewSession(d, repro.WithStatistic(stat))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := solo.Run(context.Background(), repro.WithGAConfig(cfg)); err != nil {
			solo.Close()
			t.Fatal(err)
		}
		er, ok := solo.Report()
		if !ok {
			solo.Close()
			t.Fatal("no engine report")
		}
		sequential += er.Computed
		solo.Close()

		eng, err := repro.NewEngine(d, stat, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := baseline.GreedyExchange(eng, d.NumSNPs(), subset, baseline.GreedyExchangeConfig{Seed: cfg.Seed}); err != nil {
			eng.Close()
			t.Fatal(err)
		}
		sequential += eng.Report().Computed
		eng.Close()
	}

	if raced >= sequential {
		t.Fatalf("racing computed %d evaluations, sequential %d — sharing bought nothing", raced, sequential)
	}
	if res.TotalSharedHits == 0 {
		t.Fatal("race recorded no cross-lane shared hits")
	}
	t.Logf("raced: %d computed, sequential: %d computed, shared hits: %d",
		raced, sequential, res.TotalSharedHits)
}

// TestRaceStagnationCancelsTrailingLane: under a stagnation policy the
// trailing lane ends canceled_by_race with its partial best preserved,
// while the leader finishes and wins. The leader is exhaustive over the
// 364 triples, which always contain a better haplotype than any pair;
// the trailing lane is a GA confined to pairs, which stagnates over
// the 91 pairs for thousands of evaluations. A grace above 364 keeps
// the leader uncuttable whichever lane the scheduler runs first, so
// the outcome does not depend on goroutine interleaving.
func TestRaceStagnationCancelsTrailingLane(t *testing.T) {
	testleak.Check(t)
	d := backendTestDataset(t)
	cfg := raceTestConfig(3)
	cfg.MaxSize = 2
	cfg.StagnationLimit = 1000
	cfg.MaxGenerations = 2000

	s, err := repro.NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	job, err := s.Race(context.Background(), repro.RaceSpec{
		Lanes: []repro.RaceLaneSpec{
			{Optimizer: "exhaustive", Statistic: "T1", Name: "leader"},
			{Optimizer: "ga", Statistic: "T1", Name: "trailing"},
		},
		SubsetSize: 3,
		Config:     &cfg,
		Stagnation: 30,
		Grace:      400,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	leader := laneByName(t, res.Lanes, "leader")
	trailing := laneByName(t, res.Lanes, "trailing")
	if leader.State != repro.RaceLaneDone {
		t.Fatalf("leader state = %q, want done", leader.State)
	}
	if res.Winner.Name != "leader" {
		t.Fatalf("winner = %q, want the leader lane", res.Winner.Name)
	}
	if trailing.State != repro.RaceLaneCanceledByRace {
		t.Fatalf("trailing state = %q after %d evaluations, want canceled_by_race",
			trailing.State, trailing.Evaluations)
	}
	if trailing.BestSites == nil {
		t.Fatalf("cut lane %q lost its partial best", trailing.Name)
	}
	if trailing.BestFitness >= leader.BestFitness {
		t.Fatalf("trailing best %v not below leader best %v", trailing.BestFitness, leader.BestFitness)
	}
	t.Logf("leader: %d evaluations, best %v; trailing cut after %d evaluations, best %v",
		leader.Evaluations, leader.BestFitness, trailing.Evaluations, trailing.BestFitness)
}

// TestRaceCutBaselineLaneNotDone: the budgeted baselines (stpga, tabu)
// swallow the race meter's context errors as skippable failed
// evaluations and return a partial best with a nil error, and
// exhaustive has no budget at all — a lane of any of them cut by the
// race policy must still end canceled_by_race (with the metered
// partial best when it scored anything), never pose as done.
func TestRaceCutBaselineLaneNotDone(t *testing.T) {
	testleak.Check(t)
	d := backendTestDataset(t)
	s, err := repro.NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// C(14,2) = 91 pair subsets and internal baseline budgets of 5000
	// evaluations: a race budget of 30 cuts every lane mid-run.
	job, err := s.Race(context.Background(), repro.RaceSpec{
		Lanes: []repro.RaceLaneSpec{
			{Optimizer: "stpga"},
			{Optimizer: "tabu"},
			{Optimizer: "exhaustive"},
		},
		SubsetSize: 2,
		Budget:     30,
		Grace:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, ln := range res.Lanes {
		if ln.State != repro.RaceLaneCanceledByRace {
			t.Fatalf("cut lane %q state = %q, want canceled_by_race", ln.Name, ln.State)
		}
	}
	if res.Winner.Name == "" {
		t.Fatal("budget-cut race named no winner from partial bests")
	}
}

// TestRaceClaimsJobSlot: a race occupies one WithJobLimit slot for its
// whole lifetime and releases it on completion.
func TestRaceClaimsJobSlot(t *testing.T) {
	testleak.Check(t)
	d := backendTestDataset(t)
	s, err := repro.NewSession(d, repro.WithJobLimit(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cfg := raceTestConfig(2)
	cfg.StagnationLimit = 100000
	cfg.MaxGenerations = 100000
	job, err := s.Race(context.Background(), repro.RaceSpec{
		Lanes:  []repro.RaceLaneSpec{{Optimizer: "ga"}},
		Config: &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Start(context.Background()); !errors.Is(err, repro.ErrSessionBusy) {
		t.Fatalf("Start during race: err = %v, want ErrSessionBusy", err)
	}
	if _, err := s.Race(context.Background(), repro.RaceSpec{
		Lanes: []repro.RaceLaneSpec{{Optimizer: "ga"}},
	}); !errors.Is(err, repro.ErrSessionBusy) {
		t.Fatalf("second race: err = %v, want ErrSessionBusy", err)
	}
	res, err := job.Stop()
	if !errors.Is(err, repro.ErrCanceled) {
		t.Fatalf("stopped race err = %v, want ErrCanceled", err)
	}
	if res == nil {
		t.Fatal("stopped race returned no partial result")
	}
	if s.ActiveJobs() != 0 {
		t.Fatalf("ActiveJobs = %d after race ended", s.ActiveJobs())
	}
}

// TestRaceBoardStream: the facade re-exposes the conflated leaderboard
// stream; it terminates with a Finished board and closes.
func TestRaceBoardStream(t *testing.T) {
	testleak.Check(t)
	d := backendTestDataset(t)
	s, err := repro.NewSession(d)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	job, err := s.Race(context.Background(), repro.RaceSpec{
		Lanes:      []repro.RaceLaneSpec{{Optimizer: "exhaustive"}, {Optimizer: "stpga"}},
		SubsetSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var last repro.RaceBoard
	n := 0
	for b := range job.Board() {
		if b.Seq < last.Seq {
			t.Fatalf("board seq went backwards: %d after %d", b.Seq, last.Seq)
		}
		last = b
		n++
	}
	if n == 0 || !last.Finished {
		t.Fatalf("stream ended after %d boards, final finished = %v", n, last.Finished)
	}
	snap := job.Snapshot()
	if !snap.Finished {
		t.Fatal("post-race snapshot not finished")
	}
	if _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestRaceValidation: configuration errors surface synchronously,
// wrap ErrBadConfig, and never leak a job slot.
func TestRaceValidation(t *testing.T) {
	testleak.Check(t)
	d := backendTestDataset(t)
	s, err := repro.NewSession(d, repro.WithJobLimit(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cases := []struct {
		name string
		spec repro.RaceSpec
		want string
	}{
		{"no lanes", repro.RaceSpec{}, "at least one lane"},
		{"bad optimizer", repro.RaceSpec{Lanes: []repro.RaceLaneSpec{{Optimizer: "annealing"}}}, "ga, stpga, tabu or exhaustive"},
		{"bad statistic", repro.RaceSpec{Lanes: []repro.RaceLaneSpec{{Statistic: "T9"}}}, "T1, T2, T3, T4 or AA"},
		{"bad subset", repro.RaceSpec{Lanes: []repro.RaceLaneSpec{{}}, SubsetSize: 99}, "out of range"},
		{"duplicate lanes", repro.RaceSpec{Lanes: []repro.RaceLaneSpec{{Optimizer: "ga"}, {Optimizer: "ga"}}, Budget: 100000}, "duplicate"},
		{"bad policy", repro.RaceSpec{Lanes: []repro.RaceLaneSpec{{}}, CutAfter: 0.5}, "CutAfter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := s.Race(context.Background(), tc.spec)
			if !errors.Is(err, repro.ErrBadConfig) {
				t.Fatalf("err = %v, want ErrBadConfig", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to mention %q", err, tc.want)
			}
		})
	}
	// Every failure above must have released its slot.
	if s.ActiveJobs() != 0 {
		t.Fatalf("ActiveJobs = %d after failed races", s.ActiveJobs())
	}
}

// TestRaceReportElapsedStopsAtEnd: once a race has ended, Report's
// Elapsed is the race's duration, so two reads a sleep apart agree.
func TestRaceReportElapsedStopsAtEnd(t *testing.T) {
	s, err := repro.NewSession(backendTestDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	job, err := s.Race(context.Background(), repro.RaceSpec{
		Lanes:      []repro.RaceLaneSpec{{Optimizer: "exhaustive"}},
		SubsetSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	first := job.Report().Elapsed
	time.Sleep(10 * time.Millisecond)
	if second := job.Report().Elapsed; first != second || first <= 0 {
		t.Fatalf("finished race's Elapsed moved: %v then %v", first, second)
	}
}
