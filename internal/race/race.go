// Package race coordinates portfolio racing: N optimizer×statistic
// configurations ("lanes") run concurrently over shared per-statistic
// evaluation backends, with a live cross-lane leaderboard and early
// cancellation of trailing lanes under a configurable policy.
//
// The coordinator is deliberately generic: a lane is just a RunFunc
// driving a fitness.Evaluator, so any optimizer — the paper's GA, the
// tabu/exhaustive baselines, STPGA greedy exchange — races unchanged.
// Every lane's evaluations flow through a metering wrapper that
// maintains the leaderboard, attributes shared-cache reuse (a request
// whose canonical SNP set was already evaluated by any lane of the
// same statistic is served from the shared memo cache), and enforces
// the cancellation policy inline, deterministically, with no timers.
//
// Lanes with different statistics score on different scales (a T1
// chi-square is unbounded, AA lives in [0, 1)), so the leaderboard
// ranks lanes by Score — the fraction of the best fitness achieved by
// any lane of the same statistic — with ties broken by fewer
// evaluations spent.
package race

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/fitness"
)

// ErrStopped is reported by Wait when the race was canceled — by
// Stop or by the parent context — before every lane finished
// naturally. The Result returned alongside it carries the partial
// best-so-far of every lane.
var ErrStopped = errors.New("race: stopped before finish")

// Lane states, in the order a lane can reach them. CanceledByRace is
// distinct from Canceled: the former is the racing policy cutting a
// trailing lane, the latter an outside cancellation (Stop, context).
const (
	LaneRunning        = "running"
	LaneDone           = "done"
	LaneCanceled       = "canceled"
	LaneCanceledByRace = "canceled_by_race"
	LaneFailed         = "failed"
)

// RunFunc drives one lane's optimizer to completion. It must evaluate
// exclusively through ev (the metered view of the shared backend) and
// return the best subset found; on cancellation it may return any
// error — the coordinator already knows why the lane stopped and
// keeps the metered partial best.
type RunFunc func(ctx context.Context, ev fitness.Evaluator) (LaneResult, error)

// LaneResult is a lane's own account of its best find. For a lane
// that completes, it is authoritative (bit-identical to running the
// same configuration alone); for a canceled lane the coordinator
// falls back to the metered best.
type LaneResult struct {
	BestSites   []int   `json:"best_sites,omitempty"`
	BestFitness float64 `json:"best_fitness"`
}

// LaneSpec describes one configuration entered into the race.
type LaneSpec struct {
	// Name identifies the lane on the leaderboard; empty defaults to
	// "optimizer/statistic". Names must be unique within a race.
	Name string
	// Optimizer and Statistic label the configuration; lanes with the
	// same Statistic share one seen-set for cache-hit attribution.
	Optimizer string
	Statistic string
	// Eval is the shared evaluation backend for this lane's
	// statistic. Lanes of one statistic should share one instance so
	// the memo cache lets them subsidize each other.
	Eval fitness.Evaluator
	// Run drives the optimizer.
	Run RunFunc
}

// Policy configures early cancellation. The zero value races every
// lane to natural completion.
type Policy struct {
	// Budget caps the total evaluations across all lanes; when
	// reached, every still-running lane is cut (the leader keeps its
	// partial best). 0 = unlimited.
	Budget int64 `json:"budget,omitempty"`
	// CutAfter, in (0, 1], triggers a one-time successive-halving cut
	// when total evaluations reach CutAfter×Budget: every running
	// lane outside the top KeepTop of the leaderboard is canceled.
	// Requires Budget. 0 = off.
	CutAfter float64 `json:"cut_after,omitempty"`
	// Stagnation cuts a running, non-leading lane that has not
	// improved its own best in this many of its own evaluations.
	// 0 = off.
	Stagnation int64 `json:"stagnation_evals,omitempty"`
	// Grace exempts a lane's first evaluations from every cut
	// (default 100), so no lane dies before it has scored anything.
	Grace int64 `json:"grace,omitempty"`
	// KeepTop is how many leaderboard heads survive the CutAfter cut
	// (default 1).
	KeepTop int `json:"keep_top,omitempty"`
}

func (p Policy) withDefaults() Policy {
	if p.Grace == 0 {
		p.Grace = 100
	}
	if p.KeepTop == 0 {
		p.KeepTop = 1
	}
	return p
}

func (p Policy) validate() error {
	if p.Budget < 0 || p.Stagnation < 0 || p.Grace < 0 || p.KeepTop < 1 {
		return fmt.Errorf("race: negative policy value %+v", p)
	}
	if p.CutAfter < 0 || p.CutAfter > 1 {
		return fmt.Errorf("race: CutAfter %v out of (0, 1]", p.CutAfter)
	}
	if p.CutAfter > 0 && p.Budget == 0 {
		return fmt.Errorf("race: CutAfter requires a Budget")
	}
	return nil
}

// LaneStatus is one leaderboard row.
type LaneStatus struct {
	Name        string  `json:"name"`
	Optimizer   string  `json:"optimizer"`
	Statistic   string  `json:"statistic"`
	State       string  `json:"state"`
	BestFitness float64 `json:"best_fitness"`
	BestSites   []int   `json:"best_sites,omitempty"`
	// Score is the lane's best fitness as a fraction of the best
	// fitness achieved by any lane of the same statistic, making
	// lanes with incomparable statistics rankable side by side.
	Score       float64 `json:"score"`
	Evaluations int64   `json:"evaluations"`
	// SharedHits counts this lane's evaluations whose canonical SNP
	// set had already been evaluated by some lane of the same
	// statistic — requests the shared memo cache answers without new
	// backend work.
	SharedHits int64  `json:"shared_hits"`
	Error      string `json:"error,omitempty"`
}

// Board is one leaderboard snapshot; lanes are sorted best-first.
type Board struct {
	Seq              int64        `json:"seq"`
	Leader           string       `json:"leader,omitempty"`
	Lanes            []LaneStatus `json:"lanes"`
	TotalEvaluations int64        `json:"total_evaluations"`
	TotalSharedHits  int64        `json:"total_shared_hits"`
	Finished         bool         `json:"finished"`
}

// Result is the final outcome of a race.
type Result struct {
	Winner           LaneStatus    `json:"winner"`
	Lanes            []LaneStatus  `json:"lanes"`
	TotalEvaluations int64         `json:"total_evaluations"`
	TotalSharedHits  int64         `json:"total_shared_hits"`
	Elapsed          time.Duration `json:"elapsed_ns"`
}

// lane is the coordinator's mutable per-lane state, guarded by
// Race.mu except for ctx/cancel which are set once at start.
type lane struct {
	spec   LaneSpec
	idx    int
	ctx    context.Context
	cancel context.CancelFunc

	state       string
	evals       int64
	sharedHits  int64
	lastImprove int64 // this lane's eval count at its last improvement
	best        float64
	bestSites   []int
	cutByRace   bool
	err         error
}

// Race is a running (or finished) portfolio race.
type Race struct {
	policy Policy
	ctx    context.Context
	cancel context.CancelFunc

	mu          sync.Mutex
	lanes       []*lane
	seen        map[string]map[string]struct{} // statistic -> canonical site keys
	totalEvals  int64
	totalShared int64
	seq         int64
	cutDone     bool
	running     int
	started     time.Time
	finished    bool
	result      Result
	err         error

	boardCh chan Board
	done    chan struct{}
}

// Start validates the specs and policy and launches every lane in its
// own goroutine. The returned Race reports progress on Board and
// completion on Done.
func Start(ctx context.Context, specs []LaneSpec, policy Policy) (*Race, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("race: no lanes")
	}
	policy = policy.withDefaults()
	if err := policy.validate(); err != nil {
		return nil, err
	}
	names := make(map[string]bool, len(specs))
	rctx, cancel := context.WithCancel(ctx)
	r := &Race{
		policy:  policy,
		ctx:     rctx,
		cancel:  cancel,
		seen:    map[string]map[string]struct{}{},
		started: time.Now(),
		boardCh: make(chan Board, 1),
		done:    make(chan struct{}),
	}
	for i, spec := range specs {
		if spec.Eval == nil || spec.Run == nil {
			cancel()
			return nil, fmt.Errorf("race: lane %d needs Eval and Run", i)
		}
		if spec.Name == "" {
			spec.Name = spec.Optimizer + "/" + spec.Statistic
		}
		if names[spec.Name] {
			cancel()
			return nil, fmt.Errorf("race: duplicate lane name %q", spec.Name)
		}
		names[spec.Name] = true
		lctx, lcancel := context.WithCancel(rctx)
		r.lanes = append(r.lanes, &lane{
			spec: spec, idx: i, ctx: lctx, cancel: lcancel,
			state: LaneRunning, best: math.Inf(-1),
		})
		if r.seen[spec.Statistic] == nil {
			r.seen[spec.Statistic] = map[string]struct{}{}
		}
	}
	r.running = len(r.lanes)
	r.mu.Lock()
	r.publishLocked(false)
	r.mu.Unlock()
	for _, l := range r.lanes {
		go r.runLane(l)
	}
	return r, nil
}

// Board returns the conflated leaderboard stream: a slow reader skips
// intermediate snapshots but always observes the latest, and the
// channel closes after the final (Finished) board.
func (r *Race) Board() <-chan Board { return r.boardCh }

// Wait blocks until the race finishes and returns the final result.
// The error is ErrStopped when the race was canceled from outside
// before finishing naturally; the Result is valid either way.
func (r *Race) Wait() (Result, error) {
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.result, r.err
}

// Stop cancels every lane. The race still finishes (lanes wind down
// and the final board is published); Wait reports ErrStopped.
func (r *Race) Stop() { r.cancel() }

// Snapshot returns the current leaderboard without consuming from the
// Board stream.
func (r *Race) Snapshot() Board {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.boardLocked(r.finished)
}

// runLane drives one lane to a terminal state.
func (r *Race) runLane(l *lane) {
	res, err := l.spec.Run(l.ctx, &meter{r: r, l: l})
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case err == nil:
		l.state = LaneDone
		// The lane's own account is authoritative on completion; the
		// metered best must agree, but the lane's sites carry its
		// deterministic tie-breaking.
		if res.BestSites != nil {
			l.best = res.BestFitness
			l.bestSites = append([]int(nil), res.BestSites...)
		}
	case l.cutByRace:
		l.state = LaneCanceledByRace
	case l.ctx.Err() != nil:
		l.state = LaneCanceled
	default:
		l.state = LaneFailed
		l.err = err
	}
	r.running--
	if r.running == 0 {
		r.finishLocked()
		return
	}
	r.publishLocked(false)
}

// finishLocked records the final result and closes the streams.
func (r *Race) finishLocked() {
	r.finished = true
	board := r.boardLocked(true)
	r.result = Result{
		Lanes:            board.Lanes,
		TotalEvaluations: r.totalEvals,
		TotalSharedHits:  r.totalShared,
		Elapsed:          time.Since(r.started),
	}
	if leader := r.leaderLocked(); leader != nil {
		r.result.Winner = r.statusLocked(leader)
	}
	// A stopped race is a cancellation even when it was cut before any
	// lane recorded a best; only an unstopped race with no leader is a
	// wholesale failure.
	if r.ctx.Err() != nil {
		r.err = ErrStopped
	} else if r.result.Winner.Name == "" {
		r.err = fmt.Errorf("race: every lane failed")
	}
	r.publishLocked(true)
	close(r.boardCh)
	close(r.done)
	r.cancel() // release the context resources
}

// record books one successful evaluation of lane l and applies the
// cancellation policy. sites is the evaluated set in canonical form
// (fitness.CanonicalSites, which may alias the lane's slice) and key
// its identity, the same one the engine's memo cache keys on.
func (r *Race) record(l *lane, key string, sites []int, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	l.evals++
	r.totalEvals++
	// Shared-cache attribution: only successful evaluations enter the
	// seen set (only they populate the shared memo cache), so a request
	// whose canonical set is already present was answered — or at least
	// coalesced — by another evaluation of the same statistic.
	set := r.seen[l.spec.Statistic]
	if _, shared := set[key]; shared {
		l.sharedHits++
		r.totalShared++
	} else {
		set[key] = struct{}{}
	}
	if v > l.best {
		l.best = v
		l.bestSites = append([]int(nil), sites...)
		l.lastImprove = l.evals
	}
	r.applyPolicyLocked()
	r.publishLocked(false)
}

// applyPolicyLocked runs the cancellation rules. Called after every
// recorded evaluation, under the race lock, so every decision is made
// on an exact, current leaderboard.
func (r *Race) applyPolicyLocked() {
	p := r.policy
	if p.Budget > 0 && r.totalEvals >= p.Budget {
		for _, l := range r.lanes {
			if l.state == LaneRunning {
				r.cutLocked(l)
			}
		}
		return
	}
	if p.CutAfter > 0 && !r.cutDone && float64(r.totalEvals) >= p.CutAfter*float64(p.Budget) {
		r.cutDone = true
		ranked := r.rankedLocked()
		kept := 0
		for _, l := range ranked {
			if l.state != LaneRunning {
				continue
			}
			if kept < p.KeepTop {
				kept++
				continue
			}
			if l.evals >= p.Grace {
				r.cutLocked(l)
			}
		}
	}
	if p.Stagnation > 0 {
		leader := r.leaderLocked()
		for _, l := range r.lanes {
			if l.state != LaneRunning || l == leader || l.evals < p.Grace {
				continue
			}
			if l.evals-l.lastImprove >= p.Stagnation {
				r.cutLocked(l)
			}
		}
	}
}

func (r *Race) cutLocked(l *lane) {
	l.cutByRace = true
	l.cancel()
}

// scoresLocked computes each lane's Score: its best fitness as a
// fraction of the best fitness any lane of the same statistic has
// achieved. Lanes with nothing scored yet get 0.
func (r *Race) scoresLocked() map[*lane]float64 {
	maxBy := map[string]float64{}
	for _, l := range r.lanes {
		if l.bestSites == nil {
			continue
		}
		if cur, ok := maxBy[l.spec.Statistic]; !ok || l.best > cur {
			maxBy[l.spec.Statistic] = l.best
		}
	}
	scores := make(map[*lane]float64, len(r.lanes))
	for _, l := range r.lanes {
		if l.bestSites == nil {
			scores[l] = 0
			continue
		}
		max := maxBy[l.spec.Statistic]
		switch {
		case l.best == max:
			scores[l] = 1
		case max > 0 && l.best > 0:
			scores[l] = l.best / max
		default:
			scores[l] = 0
		}
	}
	return scores
}

// rankedLocked returns the lanes sorted best-first: by Score, then by
// fewer evaluations spent (the cheaper lane got there faster), then
// by entry order for stability.
func (r *Race) rankedLocked() []*lane {
	scores := r.scoresLocked()
	ranked := append([]*lane(nil), r.lanes...)
	sort.SliceStable(ranked, func(i, j int) bool {
		a, b := ranked[i], ranked[j]
		if scores[a] != scores[b] {
			return scores[a] > scores[b]
		}
		if a.evals != b.evals {
			return a.evals < b.evals
		}
		return a.idx < b.idx
	})
	return ranked
}

// leaderLocked returns the top-ranked lane that has scored anything,
// or nil if no lane has.
func (r *Race) leaderLocked() *lane {
	for _, l := range r.rankedLocked() {
		if l.bestSites != nil {
			return l
		}
	}
	return nil
}

func (r *Race) statusLocked(l *lane) LaneStatus {
	st := LaneStatus{
		Name:        l.spec.Name,
		Optimizer:   l.spec.Optimizer,
		Statistic:   l.spec.Statistic,
		State:       l.state,
		Score:       r.scoresLocked()[l],
		Evaluations: l.evals,
		SharedHits:  l.sharedHits,
	}
	if l.bestSites != nil {
		st.BestFitness = l.best
		st.BestSites = append([]int(nil), l.bestSites...)
	}
	if l.err != nil {
		st.Error = l.err.Error()
	}
	return st
}

func (r *Race) boardLocked(finished bool) Board {
	b := Board{
		Seq:              r.seq,
		Lanes:            make([]LaneStatus, 0, len(r.lanes)),
		TotalEvaluations: r.totalEvals,
		TotalSharedHits:  r.totalShared,
		Finished:         finished,
	}
	ranked := r.rankedLocked()
	for _, l := range ranked {
		b.Lanes = append(b.Lanes, r.statusLocked(l))
	}
	if leader := r.leaderLocked(); leader != nil {
		b.Leader = leader.spec.Name
	}
	return b
}

// publishLocked pushes a fresh board into the conflated stream,
// dropping the previous undelivered snapshot if the reader is slow.
func (r *Race) publishLocked(finished bool) {
	r.seq++
	b := r.boardLocked(finished)
	for {
		select {
		case r.boardCh <- b:
			return
		default:
		}
		select {
		case <-r.boardCh:
		default:
		}
	}
}

// meter is the fitness.Evaluator a lane actually sees: it rejects
// evaluations after the lane is canceled, attributes shared-cache
// reuse, and feeds the leaderboard and policy.
type meter struct {
	r *Race
	l *lane
}

func (m *meter) Evaluate(sites []int) (float64, error) {
	if err := m.l.ctx.Err(); err != nil {
		return 0, err
	}
	v, err := m.l.spec.Eval.Evaluate(sites)
	if err != nil {
		if cerr := m.l.ctx.Err(); cerr != nil {
			return 0, cerr
		}
		return 0, err
	}
	canon := fitness.CanonicalSites(sites)
	m.r.record(m.l, string(fitness.AppendSiteKey(nil, canon)), canon, v)
	return v, nil
}
