package race

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fitness"
)

// sumEval scores a set by the sum of its sites — smooth, deterministic,
// and cheap.
var sumEval = fitness.Func(func(sites []int) (float64, error) {
	s := 0.0
	for _, v := range sites {
		s += float64(v)
	}
	return s, nil
})

// walker returns a RunFunc that evaluates the given site sets in order
// and returns the best, stopping early when canceled.
func walker(sets [][]int) RunFunc {
	return func(ctx context.Context, ev fitness.Evaluator) (LaneResult, error) {
		best := LaneResult{BestFitness: math.Inf(-1)}
		for _, sites := range sets {
			v, err := ev.Evaluate(sites)
			if err != nil {
				return best, err
			}
			if v > best.BestFitness {
				best.BestFitness = v
				best.BestSites = append([]int(nil), sites...)
			}
		}
		return best, nil
	}
}

func waitRace(t *testing.T, r *Race) Result {
	t.Helper()
	res, err := r.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	return res
}

func TestRaceRunsAllLanesToCompletion(t *testing.T) {
	specs := []LaneSpec{
		{Optimizer: "a", Statistic: "T1", Eval: sumEval, Run: walker([][]int{{1, 2}, {3, 4}})},
		{Optimizer: "b", Statistic: "T1", Eval: sumEval, Run: walker([][]int{{1, 2}, {9, 10}})},
	}
	r, err := Start(context.Background(), specs, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	res := waitRace(t, r)
	if res.Winner.Name != "b/T1" {
		t.Fatalf("winner = %q, want b/T1", res.Winner.Name)
	}
	if res.Winner.BestFitness != 19 || len(res.Winner.BestSites) != 2 {
		t.Fatalf("winner result %+v", res.Winner)
	}
	if res.TotalEvaluations != 4 {
		t.Fatalf("total evals = %d, want 4", res.TotalEvaluations)
	}
	// Lane b's {1,2} was already requested by lane a (or vice versa —
	// exactly one of the two requests is the duplicate).
	if res.TotalSharedHits != 1 {
		t.Fatalf("shared hits = %d, want 1", res.TotalSharedHits)
	}
	for _, l := range res.Lanes {
		if l.State != LaneDone {
			t.Fatalf("lane %s state %s, want done", l.Name, l.State)
		}
	}
	if res.Lanes[0].Name != "b/T1" {
		t.Fatalf("leaderboard not sorted best-first: %+v", res.Lanes)
	}
}

func TestRaceSharedHitsPerStatistic(t *testing.T) {
	// Same sets under different statistic labels share nothing.
	specs := []LaneSpec{
		{Optimizer: "a", Statistic: "T1", Eval: sumEval, Run: walker([][]int{{1, 2}})},
		{Optimizer: "b", Statistic: "AA", Eval: sumEval, Run: walker([][]int{{1, 2}})},
	}
	r, err := Start(context.Background(), specs, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if res := waitRace(t, r); res.TotalSharedHits != 0 {
		t.Fatalf("cross-statistic shared hits = %d, want 0", res.TotalSharedHits)
	}
}

func TestRaceScoreNormalizesAcrossStatistics(t *testing.T) {
	// The AA-like lane scores tiny absolute values but is its
	// statistic's best, so its Score is 1 and it can lead on cost.
	tiny := fitness.Func(func(sites []int) (float64, error) { return 0.5, nil })
	specs := []LaneSpec{
		{Optimizer: "ga", Statistic: "T1", Eval: sumEval, Run: walker([][]int{{5, 6}, {7, 8}})},
		{Optimizer: "ga", Statistic: "AA", Eval: tiny, Run: walker([][]int{{5, 6}})},
	}
	r, err := Start(context.Background(), specs, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	res := waitRace(t, r)
	for _, l := range res.Lanes {
		if l.Score != 1 {
			t.Fatalf("lane %s score %v, want 1 (each is its statistic's best)", l.Name, l.Score)
		}
	}
	// Tie on score: fewer evaluations wins the leaderboard.
	if res.Winner.Name != "ga/AA" {
		t.Fatalf("winner = %q, want the cheaper ga/AA", res.Winner.Name)
	}
}

func TestRaceStagnationCutsTrailingLane(t *testing.T) {
	// The stagnant lane evaluates the same weak set forever; the
	// leader keeps improving. The policy must cut the stagnant lane
	// (canceled_by_race) and the race must still finish.
	stagnant := func(ctx context.Context, ev fitness.Evaluator) (LaneResult, error) {
		for {
			if _, err := ev.Evaluate([]int{1, 1}); err != nil {
				return LaneResult{}, err
			}
		}
	}
	improving := func(ctx context.Context, ev fitness.Evaluator) (LaneResult, error) {
		best := LaneResult{BestFitness: math.Inf(-1)}
		for i := 0; i < 400; i++ {
			v, err := ev.Evaluate([]int{i, i + 1})
			if err != nil {
				return best, err
			}
			if v > best.BestFitness {
				best = LaneResult{BestFitness: v, BestSites: []int{i, i + 1}}
			}
		}
		return best, nil
	}
	specs := []LaneSpec{
		{Name: "leader", Optimizer: "ga", Statistic: "T1", Eval: sumEval, Run: improving},
		{Name: "loser", Optimizer: "tabu", Statistic: "T1", Eval: sumEval, Run: stagnant},
	}
	r, err := Start(context.Background(), specs, Policy{Stagnation: 50, Grace: 10})
	if err != nil {
		t.Fatal(err)
	}
	res := waitRace(t, r)
	if res.Winner.Name != "leader" {
		t.Fatalf("winner = %q", res.Winner.Name)
	}
	var loser LaneStatus
	for _, l := range res.Lanes {
		if l.Name == "loser" {
			loser = l
		}
	}
	if loser.State != LaneCanceledByRace {
		t.Fatalf("loser state = %q, want canceled_by_race", loser.State)
	}
	// Partial results survive the cut.
	if loser.BestSites == nil || loser.BestFitness != 2 {
		t.Fatalf("loser partial best %+v, want {1,1} at 2", loser)
	}
	if loser.Evaluations < 10 {
		t.Fatalf("loser cut before grace: %d evals", loser.Evaluations)
	}
}

func TestRaceBudgetCutsEverything(t *testing.T) {
	endless := func(ctx context.Context, ev fitness.Evaluator) (LaneResult, error) {
		for i := 0; ; i++ {
			if _, err := ev.Evaluate([]int{i % 7, i%7 + 1}); err != nil {
				return LaneResult{}, err
			}
		}
	}
	specs := []LaneSpec{
		{Name: "x", Optimizer: "a", Statistic: "T1", Eval: sumEval, Run: endless},
		{Name: "y", Optimizer: "b", Statistic: "T1", Eval: sumEval, Run: endless},
	}
	r, err := Start(context.Background(), specs, Policy{Budget: 100, Grace: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := waitRace(t, r)
	for _, l := range res.Lanes {
		if l.State != LaneCanceledByRace {
			t.Fatalf("lane %s state %q, want canceled_by_race", l.Name, l.State)
		}
	}
	// The budget is enforced within one evaluation of the cap: each
	// lane can have at most one evaluation in flight at the cut.
	if res.TotalEvaluations < 100 || res.TotalEvaluations > 102 {
		t.Fatalf("total evals = %d, want ~100", res.TotalEvaluations)
	}
	if res.Winner.Name == "" {
		t.Fatal("budget-exhausted race still names a winner from partial bests")
	}
}

func TestRaceCutAfterSuccessiveHalving(t *testing.T) {
	slowEval := fitness.Func(func(sites []int) (float64, error) {
		time.Sleep(100 * time.Microsecond)
		s := 0.0
		for _, v := range sites {
			s += float64(v)
		}
		return s, nil
	})
	weak := func(ctx context.Context, ev fitness.Evaluator) (LaneResult, error) {
		for i := 0; ; i++ {
			if _, err := ev.Evaluate([]int{0, 1}); err != nil {
				return LaneResult{BestSites: []int{0, 1}, BestFitness: 1}, err
			}
		}
	}
	strong := func(ctx context.Context, ev fitness.Evaluator) (LaneResult, error) {
		best := LaneResult{BestFitness: math.Inf(-1)}
		for i := 0; i < 300; i++ {
			v, err := ev.Evaluate([]int{i, i + 1})
			if err != nil {
				return best, err
			}
			if v > best.BestFitness {
				best = LaneResult{BestFitness: v, BestSites: []int{i, i + 1}}
			}
		}
		return best, nil
	}
	specs := []LaneSpec{
		{Name: "strong", Optimizer: "ga", Statistic: "T1", Eval: slowEval, Run: strong},
		{Name: "weak", Optimizer: "rs", Statistic: "T1", Eval: slowEval, Run: weak},
	}
	r, err := Start(context.Background(), specs, Policy{Budget: 100000, CutAfter: 0.002, Grace: 10, KeepTop: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := waitRace(t, r)
	var weakSt LaneStatus
	for _, l := range res.Lanes {
		if l.Name == "weak" {
			weakSt = l
		}
	}
	if weakSt.State != LaneCanceledByRace {
		t.Fatalf("weak lane state %q, want canceled_by_race after the cut", weakSt.State)
	}
	if res.Winner.Name != "strong" || res.Winner.State != LaneDone {
		t.Fatalf("winner %+v, want strong/done", res.Winner)
	}
}

func TestRaceStopReportsErrStopped(t *testing.T) {
	started := make(chan struct{})
	var once atomic.Bool
	endless := func(ctx context.Context, ev fitness.Evaluator) (LaneResult, error) {
		for i := 0; ; i++ {
			if once.CompareAndSwap(false, true) {
				close(started)
			}
			if _, err := ev.Evaluate([]int{i % 5, i%5 + 1}); err != nil {
				return LaneResult{}, err
			}
		}
	}
	r, err := Start(context.Background(), []LaneSpec{
		{Name: "only", Optimizer: "a", Statistic: "T1", Eval: sumEval, Run: endless},
	}, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	r.Stop()
	res, err := r.Wait()
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Wait error = %v, want ErrStopped", err)
	}
	if res.Lanes[0].State != LaneCanceled {
		t.Fatalf("stopped lane state %q, want canceled", res.Lanes[0].State)
	}
	if res.Lanes[0].BestSites == nil {
		t.Fatal("stopped lane lost its partial best")
	}
}

func TestRaceFailedLaneDoesNotSinkTheRace(t *testing.T) {
	boom := func(ctx context.Context, ev fitness.Evaluator) (LaneResult, error) {
		return LaneResult{}, fmt.Errorf("backend exploded")
	}
	specs := []LaneSpec{
		{Name: "ok", Optimizer: "a", Statistic: "T1", Eval: sumEval, Run: walker([][]int{{2, 3}})},
		{Name: "bad", Optimizer: "b", Statistic: "T1", Eval: sumEval, Run: boom},
	}
	r, err := Start(context.Background(), specs, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	res := waitRace(t, r)
	if res.Winner.Name != "ok" {
		t.Fatalf("winner = %q", res.Winner.Name)
	}
	for _, l := range res.Lanes {
		if l.Name == "bad" {
			if l.State != LaneFailed || l.Error == "" {
				t.Fatalf("failed lane status %+v", l)
			}
		}
	}
}

func TestRaceAllLanesFailed(t *testing.T) {
	boom := func(ctx context.Context, ev fitness.Evaluator) (LaneResult, error) {
		return LaneResult{}, fmt.Errorf("no luck")
	}
	r, err := Start(context.Background(), []LaneSpec{
		{Name: "a", Optimizer: "a", Statistic: "T1", Eval: sumEval, Run: boom},
	}, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Wait(); err == nil {
		t.Fatal("all-failed race returned no error")
	}
}

func TestRaceBoardStream(t *testing.T) {
	specs := []LaneSpec{
		{Name: "a", Optimizer: "a", Statistic: "T1", Eval: sumEval, Run: walker([][]int{{1, 2}, {3, 4}, {5, 6}})},
	}
	r, err := Start(context.Background(), specs, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	var last Board
	n := 0
	for b := range r.Board() {
		if b.Seq <= last.Seq && n > 0 {
			t.Fatalf("board seq not increasing: %d after %d", b.Seq, last.Seq)
		}
		last = b
		n++
	}
	if !last.Finished {
		t.Fatalf("final board not marked finished: %+v", last)
	}
	if last.Leader != "a" || last.Lanes[0].BestFitness != 11 {
		t.Fatalf("final board %+v", last)
	}
	if last.TotalEvaluations != 3 {
		t.Fatalf("final board evals = %d, want 3", last.TotalEvaluations)
	}
}

func TestRaceSnapshot(t *testing.T) {
	block := make(chan struct{})
	gated := fitness.Func(func(sites []int) (float64, error) {
		<-block
		return 1, nil
	})
	r, err := Start(context.Background(), []LaneSpec{
		{Name: "g", Optimizer: "a", Statistic: "T1", Eval: gated, Run: walker([][]int{{1, 2}})},
	}, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if snap.Finished || len(snap.Lanes) != 1 || snap.Lanes[0].State != LaneRunning {
		t.Fatalf("mid-race snapshot %+v", snap)
	}
	close(block)
	waitRace(t, r)
	if !r.Snapshot().Finished {
		t.Fatal("post-race snapshot not finished")
	}
}

func TestRaceValidation(t *testing.T) {
	ok := LaneSpec{Name: "a", Optimizer: "o", Statistic: "s", Eval: sumEval, Run: walker(nil)}
	if _, err := Start(context.Background(), nil, Policy{}); err == nil {
		t.Fatal("empty lane list accepted")
	}
	if _, err := Start(context.Background(), []LaneSpec{{Name: "x"}}, Policy{}); err == nil {
		t.Fatal("lane without Eval/Run accepted")
	}
	if _, err := Start(context.Background(), []LaneSpec{ok, ok}, Policy{}); err == nil {
		t.Fatal("duplicate lane names accepted")
	}
	if _, err := Start(context.Background(), []LaneSpec{ok}, Policy{CutAfter: 0.5}); err == nil {
		t.Fatal("CutAfter without Budget accepted")
	}
	if _, err := Start(context.Background(), []LaneSpec{ok}, Policy{CutAfter: 1.5, Budget: 10}); err == nil {
		t.Fatal("CutAfter > 1 accepted")
	}
	if _, err := Start(context.Background(), []LaneSpec{ok}, Policy{Budget: -1}); err == nil {
		t.Fatal("negative budget accepted")
	}
}

func TestRaceFailedEvalDoesNotPoisonSharedSet(t *testing.T) {
	// A failed evaluation never reaches the shared memo cache, so it
	// must not enter the seen set either: the first successful
	// evaluation of the same canonical set afterwards is computed, not
	// a shared-cache hit. A duplicate of the success still is one.
	var calls atomic.Int64
	flaky := fitness.Func(func(sites []int) (float64, error) {
		if calls.Add(1) == 1 {
			return 0, fmt.Errorf("transient backend failure")
		}
		return 1, nil
	})
	lane := func(ctx context.Context, ev fitness.Evaluator) (LaneResult, error) {
		if _, err := ev.Evaluate([]int{1, 2}); err == nil {
			return LaneResult{}, fmt.Errorf("first evaluation unexpectedly succeeded")
		}
		v, err := ev.Evaluate([]int{1, 2}) // retry: first success of this set
		if err != nil {
			return LaneResult{}, err
		}
		if _, err := ev.Evaluate([]int{2, 1}); err != nil { // true duplicate (canonicalized)
			return LaneResult{}, err
		}
		return LaneResult{BestFitness: v, BestSites: []int{1, 2}}, nil
	}
	r, err := Start(context.Background(), []LaneSpec{
		{Name: "l", Optimizer: "a", Statistic: "T1", Eval: flaky, Run: lane},
	}, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	res := waitRace(t, r)
	if res.TotalEvaluations != 2 {
		t.Fatalf("recorded evaluations = %d, want the 2 successes", res.TotalEvaluations)
	}
	if res.TotalSharedHits != 1 {
		t.Fatalf("shared hits = %d, want 1 (the duplicate of the success, not the retry after the failure)", res.TotalSharedHits)
	}
}

func TestRaceMeterRejectsAfterCancel(t *testing.T) {
	// After a lane is cut, its evaluator must reject immediately so
	// budget-looping optimizers wind down fast without touching the
	// shared backend.
	evals := make(chan struct{}, 1)
	resume := make(chan struct{})
	lane := func(ctx context.Context, ev fitness.Evaluator) (LaneResult, error) {
		if _, err := ev.Evaluate([]int{1, 2}); err != nil {
			return LaneResult{}, err
		}
		evals <- struct{}{}
		<-resume
		// The race was stopped while we were parked: this call must
		// fail without reaching the backend.
		if _, err := ev.Evaluate([]int{3, 4}); err == nil {
			return LaneResult{}, fmt.Errorf("evaluate after cancel succeeded")
		}
		return LaneResult{}, ctx.Err()
	}
	r, err := Start(context.Background(), []LaneSpec{
		{Name: "l", Optimizer: "a", Statistic: "T1", Eval: sumEval, Run: lane},
	}, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	<-evals
	r.Stop()
	close(resume)
	res, werr := r.Wait()
	if !errors.Is(werr, ErrStopped) {
		t.Fatalf("Wait error = %v", werr)
	}
	if res.Lanes[0].Evaluations != 1 {
		t.Fatalf("post-cancel evaluation was recorded: %d", res.Lanes[0].Evaluations)
	}
}

func TestRaceDuplicateSitesShareTheCanonicalSet(t *testing.T) {
	// {1,4,9,9} is the SNP set {1,4,9}: the engine serves it from the
	// entry {1,4,9} left, so the race must count it as a shared hit,
	// and the lane's metered best must list each site once.
	dedupSum := fitness.Func(func(sites []int) (float64, error) {
		s, seen := 0.0, map[int]bool{}
		for _, v := range sites {
			if !seen[v] {
				seen[v] = true
				s += float64(v)
			}
		}
		return s, nil
	})
	first := make(chan struct{})
	lead := func(ctx context.Context, ev fitness.Evaluator) (LaneResult, error) {
		defer close(first)
		_, err := ev.Evaluate([]int{1, 4, 9})
		return LaneResult{}, err
	}
	follow := func(ctx context.Context, ev fitness.Evaluator) (LaneResult, error) {
		<-first
		_, err := ev.Evaluate([]int{1, 4, 9, 9})
		return LaneResult{}, err // no BestSites: the metered best stands
	}
	r, err := Start(context.Background(), []LaneSpec{
		{Name: "lead", Optimizer: "a", Statistic: "T1", Eval: dedupSum, Run: lead},
		{Name: "follow", Optimizer: "b", Statistic: "T1", Eval: dedupSum, Run: follow},
	}, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	res := waitRace(t, r)
	if res.TotalSharedHits != 1 {
		t.Fatalf("shared hits = %d, want 1: {1,4,9,9} is the set {1,4,9} already evaluated", res.TotalSharedHits)
	}
	for _, l := range res.Lanes {
		if fmt.Sprint(l.BestSites) != "[1 4 9]" {
			t.Errorf("lane %s best sites = %v, want [1 4 9]", l.Name, l.BestSites)
		}
		if l.Name == "follow" && l.SharedHits != 1 {
			t.Errorf("lane follow shared hits = %d, want 1", l.SharedHits)
		}
	}
}
