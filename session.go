package repro

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/fitness"
	"repro/internal/island"
)

// Session is the long-lived handle for studying one dataset: it owns
// the dataset plus its evaluation backend, so the backend's memoizing
// fitness cache persists across runs — a second run (or a parameter
// sweep) pays only for haplotypes no earlier run visited. Construct
// with NewSession, run synchronously with Run, asynchronously with
// Start, and Close when done with the whole study.
//
// A Session is safe for concurrent use: multiple runs and jobs may
// execute at once and share the backend (the native engine evaluates
// independent batches in parallel; the master/slave backends serialize
// them, as the paper's protocol does).
type Session struct {
	data     *Dataset
	numSNPs  int
	stat     Statistic
	backend  Backend
	eval     Evaluator
	owned    ParallelEvaluator // non-nil when the session must close eval
	baseCfg  GAConfig
	gaSet    bool
	trace    func(TraceEntry)
	jobLimit int // max concurrent Start jobs; 0 = unbounded

	// Sharded-backend shape (WithShardSize / WithSpillDir); shardSize
	// is 0 when the session evaluates monolithically.
	shardSize int
	spillDir  string

	// Island-mode defaults (WithIslands / WithMigration at session
	// level); run-level options override them per run.
	islands     int
	migInterval int
	migCount    int
	migSet      bool

	mu         sync.Mutex
	closed     bool
	activeJobs int // background jobs currently running
	// raceEvals are per-statistic engines created lazily by Race for
	// lanes scoring a statistic other than s.stat; session-owned, so
	// Close releases them.
	raceEvals map[Statistic]ParallelEvaluator
}

// NewSession builds a session over the dataset. Session-level options
// select the fitness statistic, the evaluation backend and its worker
// count (or a caller-owned evaluator via WithEvaluator), a default
// GAConfig, and a default trace observer. Configuration errors wrap
// ErrBadConfig; dataset errors wrap ErrBadDataset.
func NewSession(d *Dataset, opts ...Option) (*Session, error) {
	if d == nil {
		return nil, fmt.Errorf("%w: nil dataset", ErrBadDataset)
	}
	if d.NumSNPs() < 2 {
		return nil, fmt.Errorf("%w: need at least 2 SNPs, have %d", ErrBadDataset, d.NumSNPs())
	}
	var st settings
	if err := st.apply(opts); err != nil {
		return nil, err
	}
	if st.evalSet && (st.backendSet || st.workersSet) {
		return nil, fmt.Errorf("%w: WithEvaluator replaces the session backend; WithBackend and WithWorkers do not combine with it", ErrBadConfig)
	}
	s := &Session{
		data:        d,
		numSNPs:     d.NumSNPs(),
		stat:        DefaultStatistic,
		backend:     BackendNative,
		baseCfg:     st.gaCfg,
		gaSet:       st.gaSet,
		trace:       st.trace,
		jobLimit:    st.jobLimit,
		islands:     st.islands,
		migInterval: st.migInterval,
		migCount:    st.migCount,
		migSet:      st.migSet,
	}
	if st.migSet && st.islands < 1 {
		return nil, fmt.Errorf("%w: WithMigration requires WithIslands(n >= 1)", ErrBadConfig)
	}
	if st.statSet {
		s.stat = st.stat
	}
	if st.backendSet {
		s.backend = st.backend
	}
	if st.shardSizeSet || st.spillDirSet {
		if st.evalSet {
			return nil, fmt.Errorf("%w: WithShardSize/WithSpillDir build the session backend; WithEvaluator does not combine with them", ErrBadConfig)
		}
		if st.backendSet && st.backend != BackendNative {
			return nil, fmt.Errorf("%w: only the native backend shards; WithShardSize/WithSpillDir do not combine with WithBackend(%d)", ErrBadConfig, st.backend)
		}
		eng, err := NewShardedEngine(d, s.stat, st.shardSize, st.spillDir, st.workers)
		if err != nil {
			return nil, err
		}
		s.eval = eng
		s.owned = eng
		s.shardSize = eng.Plan().ShardSize
		s.spillDir = st.spillDir
		return s, nil
	}
	if st.evalSet {
		s.eval = st.eval
		return s, nil
	}
	pool, err := NewBackend(d, s.stat, s.backend, st.workers)
	if err != nil {
		return nil, err
	}
	s.eval = pool
	s.owned = pool
	return s, nil
}

// Dataset returns the session's dataset.
func (s *Session) Dataset() *Dataset { return s.data }

// NumSNPs returns the dataset's marker count.
func (s *Session) NumSNPs() int { return s.numSNPs }

// Statistic returns the fitness statistic every run of this session
// scores with (DefaultStatistic unless WithStatistic chose another).
// For a WithEvaluator session the statistic is whatever the supplied
// evaluator computes; pass WithStatistic alongside WithEvaluator to
// declare it here, otherwise this reports DefaultStatistic.
func (s *Session) Statistic() Statistic { return s.stat }

// Evaluator exposes the session's evaluation backend, for callers that
// want to score individual haplotypes through the same memoizing cache
// the GA uses (an HTTP layer's ad-hoc scoring endpoint, for example).
func (s *Session) Evaluator() Evaluator { return s.eval }

// ActiveJobs returns the number of background jobs (Session.Start)
// currently running on the session.
func (s *Session) ActiveJobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.activeJobs
}

// JobLimit returns the session's concurrent background job cap (0 =
// unbounded); see WithJobLimit.
func (s *Session) JobLimit() int { return s.jobLimit }

// ShardSize returns the session backend's SNP columns per shard, or 0
// when the session evaluates monolithically (no WithShardSize /
// WithSpillDir).
func (s *Session) ShardSize() int { return s.shardSize }

// SpillDir returns the directory the session's shards spill to, or ""
// when shards stay in memory.
func (s *Session) SpillDir() string { return s.spillDir }

// Workers returns the evaluation backend's worker count, or 0 when the
// backend does not expose one.
func (s *Session) Workers() int {
	if pe, ok := s.eval.(interface{ Slaves() int }); ok {
		return pe.Slaves()
	}
	return 0
}

// Report returns the evaluation backend's cumulative counters (cache
// hit-rate, coalesced evaluations, per-worker throughput). The second
// result is false when the backend does not track counters (the
// master/slave fidelity backends do not; the native engine does).
func (s *Session) Report() (EngineReport, bool) {
	if r, ok := s.eval.(fitness.Reporter); ok {
		return r.Report(), true
	}
	return EngineReport{}, false
}

// Close releases the session's evaluation backend (and with it the
// memoized fitness cache). Runs still in flight will fail their
// remaining evaluations; finish or Stop jobs first. Close is
// idempotent. Backends supplied via WithEvaluator are not closed —
// their owner closes them.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.owned != nil {
		s.owned.Close()
	}
	for _, ev := range s.raceEvals {
		ev.Close()
	}
	return nil
}

// runner is one prepared GA run, whichever engine executes it: the
// synchronous core.GA or an asynchronous island.Model. Both honor the
// same context semantics and produce the same Result shape.
type runner interface {
	RunContext(ctx context.Context) (*core.Result, error)
}

// prepare merges run-level options over the session defaults and
// builds the engine for one run — the synchronous GA, or the island
// model when the merged options select islands. publish, when
// non-nil, is the Job's progress hook and runs after any user trace.
func (s *Session) prepare(opts []Option, publish func(TraceEntry)) (runner, error) {
	var st settings
	if err := st.apply(opts); err != nil {
		return nil, err
	}
	if err := st.sessionOnly(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrSessionClosed
	}
	cfg := s.baseCfg
	if st.gaSet {
		cfg = st.gaCfg
	}
	trace := s.trace
	if st.traceSet {
		trace = st.trace
	}
	islands := s.islands
	if st.islandsSet {
		islands = st.islands
	}
	migInterval, migCount := s.migInterval, s.migCount
	if st.migSet {
		migInterval, migCount = st.migInterval, st.migCount
	}
	// A run-level WithMigration must pair with islands somewhere; a
	// session-level migration default (validated by NewSession) is
	// simply inert when the run resolves to the synchronous engine
	// (for example via a run-level WithIslands(0) override).
	if st.migSet && islands < 1 {
		return nil, fmt.Errorf("%w: WithMigration requires WithIslands(n >= 1)", ErrBadConfig)
	}
	cfg.OnGeneration = chainTrace(cfg.OnGeneration, trace, publish)
	if islands > 0 {
		m, err := island.New(s.eval, s.numSNPs, cfg, island.Config{
			Islands:           islands,
			MigrationInterval: migInterval,
			MigrationCount:    migCount,
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadConfig, err)
		}
		return m, nil
	}
	ga, err := core.New(s.eval, s.numSNPs, cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	return ga, nil
}

// chainTrace composes the per-generation observers in delivery order:
// the legacy GAConfig.OnGeneration callback, then the WithTrace
// observer, then the Job's stream.
func chainTrace(fns ...func(TraceEntry)) func(TraceEntry) {
	var live []func(TraceEntry)
	for _, fn := range fns {
		if fn != nil {
			live = append(live, fn)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(e TraceEntry) {
		for _, fn := range live {
			fn(e)
		}
	}
}

// Run executes one GA run synchronously under ctx, honoring
// cancellation and deadlines end to end: the generation loop and the
// evaluation batch path both observe ctx, so a cancelled run returns
// within one generation (plus in-flight evaluations). On cancellation
// the returned *GAResult is not nil — it carries the partial outcome
// (every subpopulation best found so far) — and the error wraps both
// ErrCanceled and the context error.
//
// Run-level options (WithGAConfig, WithTrace) override the session
// defaults for this run only.
func (s *Session) Run(ctx context.Context, opts ...Option) (*GAResult, error) {
	ga, err := s.prepare(opts, nil)
	if err != nil {
		return nil, err
	}
	res, err := ga.RunContext(ctx)
	return res, wrapRunErr(err)
}
