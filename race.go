package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/clump"
	"repro/internal/core"
	"repro/internal/fitness"
	"repro/internal/race"
)

// Racing types re-exported from the coordinator, so callers of the
// facade never import internal packages.
type (
	// RaceBoard is a leaderboard snapshot; see Session.Race.
	RaceBoard = race.Board
	// RaceLaneStatus is one leaderboard row.
	RaceLaneStatus = race.LaneStatus
	// RaceResult is a race's final outcome.
	RaceResult = race.Result
)

// Race lane states (RaceLaneStatus.State). RaceLaneCanceledByRace
// marks a lane the racing policy cut as trailing, as opposed to an
// outside cancellation.
const (
	RaceLaneRunning        = race.LaneRunning
	RaceLaneDone           = race.LaneDone
	RaceLaneCanceled       = race.LaneCanceled
	RaceLaneCanceledByRace = race.LaneCanceledByRace
	RaceLaneFailed         = race.LaneFailed
)

// RaceOptimizers lists the optimizer names Session.Race understands,
// in canonical order, for usage text and error messages.
func RaceOptimizers() []string { return []string{"ga", "stpga", "tabu", "exhaustive"} }

// raceOptimizerList renders the optimizer names for error messages.
func raceOptimizerList() string {
	names := RaceOptimizers()
	return strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
}

// defaultRaceSubsetSize is the haplotype size the subset optimizers
// search when RaceSpec.SubsetSize is zero.
const defaultRaceSubsetSize = 4

// RaceLaneSpec selects one optimizer×statistic configuration to race.
type RaceLaneSpec struct {
	// Name labels the lane on the leaderboard; empty defaults to
	// "optimizer/statistic". Names must be unique within the race.
	Name string `json:"name,omitempty"`
	// Optimizer is one of RaceOptimizers (empty = "ga").
	Optimizer string `json:"optimizer"`
	// Statistic is a clump statistic name, "T1".."T4" or "AA" (empty
	// = the session's statistic). Lanes with the same statistic share
	// one evaluation engine — and its memo cache — so they subsidize
	// each other.
	Statistic string `json:"statistic"`
}

// RaceSpec configures Session.Race: the lanes to launch and the early
// cancellation policy (zero policy fields race every lane to natural
// completion).
type RaceSpec struct {
	// Lanes are the configurations to race; at least one.
	Lanes []RaceLaneSpec `json:"lanes"`
	// SubsetSize is the haplotype size the subset optimizers (stpga,
	// tabu, exhaustive) search (default 4). GA lanes search the full
	// MinSize..MaxSize range of Config.
	SubsetSize int `json:"subset_size,omitempty"`
	// Config overrides the session's GAConfig for GA lanes; nil uses
	// the session default. Its Seed also seeds the subset optimizers,
	// so a race rerun is deterministic lane by lane.
	Config *GAConfig `json:"config,omitempty"`
	// Budget caps total evaluations across all lanes; reaching it
	// cancels every still-running lane (0 = unlimited).
	Budget int64 `json:"budget,omitempty"`
	// CutAfter in (0, 1] triggers one successive-halving cut at
	// CutAfter×Budget total evaluations: running lanes outside the
	// leaderboard's top KeepTop are canceled. Requires Budget.
	CutAfter float64 `json:"cut_after,omitempty"`
	// Stagnation cancels a running, non-leading lane that has not
	// improved in that many of its own evaluations (0 = off).
	Stagnation int64 `json:"stagnation_evals,omitempty"`
	// Grace exempts each lane's first evaluations from every cut
	// (default 100).
	Grace int64 `json:"grace,omitempty"`
	// KeepTop is how many leaderboard heads survive the CutAfter cut
	// (default 1).
	KeepTop int `json:"keep_top,omitempty"`
}

// RaceJob is a portfolio race executing in the background, started
// with Session.Race. It mirrors Job: a conflated leaderboard stream
// instead of per-generation progress, a Done channel, Wait/Stop with
// partial results on cancellation, and a pollable Report.
type RaceJob struct {
	session *Session
	r       *race.Race
	started time.Time
	done    chan struct{}

	mu     sync.Mutex
	result *RaceResult
	err    error
	ended  time.Time // set when done closes
}

// Race launches the spec's lanes as one background race over this
// session and returns its handle. Lanes share evaluation backends per
// statistic: lanes scoring the session's own statistic use the
// session backend (and its warmed memo cache); other statistics get
// session-owned engines created on first use and closed with the
// session. A race claims one WithJobLimit slot, like Start.
func (s *Session) Race(ctx context.Context, spec RaceSpec) (*RaceJob, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(spec.Lanes) == 0 {
		return nil, fmt.Errorf("%w: race needs at least one lane", ErrBadConfig)
	}
	cfg := s.baseCfg
	if spec.Config != nil {
		cfg = *spec.Config
	}
	subset := spec.SubsetSize
	if subset == 0 {
		subset = defaultRaceSubsetSize
	}
	if subset < 1 || subset > s.numSNPs {
		return nil, fmt.Errorf("%w: race subset size %d out of range (1 to %d SNPs)", ErrBadConfig, subset, s.numSNPs)
	}
	if err := s.reserveJob(); err != nil {
		return nil, err
	}
	specs := make([]race.LaneSpec, 0, len(spec.Lanes))
	for i, ln := range spec.Lanes {
		stat := s.stat
		if ln.Statistic != "" {
			var err error
			if stat, err = clump.Parse(ln.Statistic); err != nil {
				s.releaseJob()
				return nil, fmt.Errorf("%w: lane %d: %w", ErrBadConfig, i, err)
			}
		}
		optimizer := ln.Optimizer
		if optimizer == "" {
			optimizer = "ga"
		}
		run, err := s.laneRunFunc(optimizer, cfg, subset)
		if err != nil {
			s.releaseJob()
			return nil, fmt.Errorf("%w: lane %d: %w", ErrBadConfig, i, err)
		}
		ev, err := s.evaluatorFor(stat)
		if err != nil {
			s.releaseJob()
			return nil, err
		}
		specs = append(specs, race.LaneSpec{
			Name:      ln.Name,
			Optimizer: optimizer,
			Statistic: stat.String(),
			Eval:      ev,
			Run:       run,
		})
	}
	r, err := race.Start(ctx, specs, race.Policy{
		Budget:     spec.Budget,
		CutAfter:   spec.CutAfter,
		Stagnation: spec.Stagnation,
		Grace:      spec.Grace,
		KeepTop:    spec.KeepTop,
	})
	if err != nil {
		s.releaseJob()
		return nil, fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	rj := &RaceJob{session: s, r: r, started: time.Now(), done: make(chan struct{})}
	go func() {
		res, err := r.Wait()
		rj.mu.Lock()
		rj.result = &res
		if errors.Is(err, race.ErrStopped) {
			rj.err = fmt.Errorf("%w: %w", ErrCanceled, err)
		} else {
			rj.err = err
		}
		rj.ended = time.Now()
		rj.mu.Unlock()
		s.releaseJob()
		close(rj.done)
	}()
	return rj, nil
}

// laneRunFunc builds the optimizer driver for one lane. GA lanes run
// the paper's synchronous adaptive GA with the given config (same
// seed and parameters as a standalone run, so a winning GA lane is
// bit-identical to running alone); subset lanes search one haplotype
// size with the optimizer's own defaults, seeded from the config.
func (s *Session) laneRunFunc(optimizer string, cfg GAConfig, subset int) (race.RunFunc, error) {
	numSNPs := s.numSNPs
	switch optimizer {
	case "ga":
		return func(ctx context.Context, ev fitness.Evaluator) (race.LaneResult, error) {
			ga, err := core.New(ev, numSNPs, cfg)
			if err != nil {
				return race.LaneResult{}, err
			}
			res, err := ga.RunContext(ctx)
			if err != nil {
				return race.LaneResult{}, err
			}
			return bestOfGA(res), nil
		}, nil
	case "stpga":
		return func(ctx context.Context, ev fitness.Evaluator) (race.LaneResult, error) {
			res, err := baseline.GreedyExchange(ev, numSNPs, subset, baseline.GreedyExchangeConfig{Seed: cfg.Seed})
			return race.LaneResult{BestSites: res.BestSites, BestFitness: res.BestFitness}, laneErr(ctx, err)
		}, nil
	case "tabu":
		return func(ctx context.Context, ev fitness.Evaluator) (race.LaneResult, error) {
			res, err := baseline.TabuSearch(ev, numSNPs, subset, baseline.TabuConfig{Seed: cfg.Seed})
			return race.LaneResult{BestSites: res.BestSites, BestFitness: res.BestFitness}, laneErr(ctx, err)
		}, nil
	case "exhaustive":
		return func(ctx context.Context, ev fitness.Evaluator) (race.LaneResult, error) {
			res, err := baseline.ExhaustiveContext(ctx, ev, numSNPs, subset)
			return race.LaneResult{BestSites: res.BestSites, BestFitness: res.BestFitness}, laneErr(ctx, err)
		}, nil
	}
	return nil, fmt.Errorf("unknown optimizer %q (want %s)", optimizer, raceOptimizerList())
}

// laneErr surfaces a cancellation the budgeted baselines swallow: they
// treat the race meter's context errors as skippable failed
// evaluations, drain their budget, and return a partial best with a
// nil error — which would classify a cut lane as done. Returning the
// context error instead lets the coordinator label the lane
// canceled/canceled_by_race and keep the metered partial best.
func laneErr(ctx context.Context, err error) error {
	if err == nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// bestOfGA reduces a GA result to the single best haplotype across
// sizes (smallest size wins fitness ties, for determinism).
func bestOfGA(res *core.Result) race.LaneResult {
	out := race.LaneResult{BestFitness: math.Inf(-1)}
	sizes := make([]int, 0, len(res.BestBySize))
	for size := range res.BestBySize {
		sizes = append(sizes, size)
	}
	sort.Ints(sizes)
	for _, size := range sizes {
		if h := res.BestBySize[size]; h != nil && h.Fitness > out.BestFitness {
			out.BestFitness = h.Fitness
			out.BestSites = append([]int(nil), h.Sites...)
		}
	}
	if out.BestSites == nil {
		return race.LaneResult{}
	}
	return out
}

// evaluatorFor returns the session's shared evaluation backend for a
// statistic: the session's own backend for its primary statistic, or
// a lazily created session-owned native engine per other statistic
// (shared by every lane — and every race — that scores it, and closed
// by Session.Close).
func (s *Session) evaluatorFor(stat Statistic) (Evaluator, error) {
	if stat == s.stat {
		return s.eval, nil
	}
	if s.data == nil {
		return nil, fmt.Errorf("%w: session has no dataset; only its own statistic %v can race", ErrBadConfig, s.stat)
	}
	workers := s.Workers()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	if ev, ok := s.raceEvals[stat]; ok {
		return ev, nil
	}
	eng, err := NewEngine(s.data, stat, workers)
	if err != nil {
		return nil, err
	}
	if s.raceEvals == nil {
		s.raceEvals = make(map[Statistic]ParallelEvaluator)
	}
	s.raceEvals[stat] = eng
	return eng, nil
}

// Board returns the conflated leaderboard stream: a slow reader skips
// intermediate snapshots but always observes the latest, and the
// channel closes after the final (Finished) board.
func (rj *RaceJob) Board() <-chan RaceBoard { return rj.r.Board() }

// Done returns a channel closed when every lane has reached a
// terminal state and the result is available.
func (rj *RaceJob) Done() <-chan struct{} { return rj.done }

// Wait blocks until the race finishes and returns the final result:
// the winner, every lane's status (losers cut by the policy carry
// state "canceled_by_race" and their partial bests), and the shared
// totals. After a cancellation (context or Stop) the result is the
// partial outcome and the error wraps ErrCanceled.
func (rj *RaceJob) Wait() (*RaceResult, error) {
	<-rj.done
	rj.mu.Lock()
	defer rj.mu.Unlock()
	return rj.result, rj.err
}

// Stop cancels every lane and waits for the race to wind down,
// returning the partial outcome with an error wrapping ErrCanceled.
// Stopping a finished race just returns its outcome.
func (rj *RaceJob) Stop() (*RaceResult, error) {
	rj.r.Stop()
	return rj.Wait()
}

// Snapshot returns the current leaderboard without consuming from the
// Board stream — the handle a status endpoint polls.
func (rj *RaceJob) Snapshot() RaceBoard { return rj.r.Snapshot() }

// Report snapshots the race as a JobReport, for surfaces that treat
// races and GA jobs uniformly: Evaluations is the race's recorded
// total across lanes, and Engine aggregates the counters of every
// backend the race evaluates through (the session's plus any
// per-statistic race engines).
func (rj *RaceJob) Report() JobReport {
	b := rj.r.Snapshot()
	rj.mu.Lock()
	ended := rj.ended
	rj.mu.Unlock()
	rep := JobReport{
		Running:     !b.Finished,
		Evaluations: b.TotalEvaluations,
		Elapsed:     elapsed(rj.started, ended),
	}
	if er, ok := rj.session.raceEngineReport(); ok {
		rep.Engine = &er
	}
	return rep
}

// raceEngineReport sums the counters of the session backend and every
// per-statistic race engine, so a race's cost is visible as one
// report. False when no backend tracks counters.
func (s *Session) raceEngineReport() (EngineReport, bool) {
	var sum EngineReport
	found := false
	add := func(ev Evaluator) {
		r, ok := ev.(fitness.Reporter)
		if !ok {
			return
		}
		rep := r.Report()
		sum.Requests += rep.Requests
		sum.Computed += rep.Computed
		sum.CacheHits += rep.CacheHits
		sum.Coalesced += rep.Coalesced
		sum.CacheEntries += rep.CacheEntries
		sum.CacheBytes += rep.CacheBytes
		sum.Workers += rep.Workers
		sum.PerWorker = append(sum.PerWorker, rep.PerWorker...)
		if rep.Uptime > sum.Uptime {
			sum.Uptime = rep.Uptime
		}
		found = true
	}
	add(s.eval)
	s.mu.Lock()
	evs := make([]Evaluator, 0, len(s.raceEvals))
	for _, ev := range s.raceEvals {
		evs = append(evs, ev)
	}
	s.mu.Unlock()
	for _, ev := range evs {
		add(ev)
	}
	return sum, found
}
