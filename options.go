package repro

import "fmt"

// DefaultStatistic is the fitness statistic used when WithStatistic is
// not given: T1, the paper's default. The Statistic zero value never
// selects a statistic (the four constants start at 1), so "unset" and
// "explicitly chosen" are always distinguishable.
const DefaultStatistic = T1

// Option configures a Session or a single run. The backend-shaping
// options — WithStatistic, WithBackend, WithWorkers, WithEvaluator —
// are session-level: they are accepted by NewSession only, because
// the session owns one evaluation backend (and its memoizing cache)
// for its whole lifetime. WithGAConfig and WithTrace are accepted at
// both levels; a run-level value overrides the session default for
// that run only.
type Option func(*settings) error

// settings is the merged option state. Each field carries a set flag
// so defaults stay explicit and level checks are possible.
type settings struct {
	stat         Statistic
	statSet      bool
	backend      Backend
	backendSet   bool
	workers      int
	workersSet   bool
	eval         Evaluator
	evalSet      bool
	jobLimit     int
	jobLimitSet  bool
	gaCfg        GAConfig
	gaSet        bool
	trace        func(TraceEntry)
	traceSet     bool
	islands      int
	islandsSet   bool
	migInterval  int
	migCount     int
	migSet       bool
	shardSize    int
	shardSizeSet bool
	spillDir     string
	spillDirSet  bool
}

func (s *settings) apply(opts []Option) error {
	for _, o := range opts {
		if o == nil {
			return fmt.Errorf("%w: nil option", ErrBadConfig)
		}
		if err := o(s); err != nil {
			return err
		}
	}
	return nil
}

// sessionOnly reports an error if any session-level option was given
// (used to reject them at run level).
func (s *settings) sessionOnly() error {
	if s.statSet || s.backendSet || s.workersSet || s.evalSet || s.jobLimitSet || s.shardSizeSet || s.spillDirSet {
		return fmt.Errorf("%w: WithStatistic, WithBackend, WithWorkers, WithEvaluator, WithJobLimit, WithShardSize and WithSpillDir are session-level options; create a new Session to change the evaluation backend", ErrBadConfig)
	}
	return nil
}

// WithStatistic selects the CLUMP statistic used as fitness. Only the
// defined statistics (T1..T4, AA) are valid; in particular the
// Statistic zero value is rejected rather than silently mapped to the
// default, so a run is never configured by accident. Omit the option
// to get DefaultStatistic (T1).
func WithStatistic(stat Statistic) Option {
	return func(s *settings) error {
		if !stat.Valid() {
			return fmt.Errorf("%w: unknown statistic %d (omit WithStatistic for the default, T1)", ErrBadConfig, stat)
		}
		s.stat = stat
		s.statSet = true
		return nil
	}
}

// WithBackend selects the parallel evaluation backend (default
// BackendNative). A fixed GA seed produces the identical result under
// every backend; they differ only in speed.
func WithBackend(b Backend) Option {
	return func(s *settings) error {
		switch b {
		case BackendNative, BackendPool, BackendPVM:
		default:
			return fmt.Errorf("%w: unknown backend %d", ErrBadConfig, b)
		}
		s.backend = b
		s.backendSet = true
		return nil
	}
}

// WithWorkers sizes the evaluation worker pool (0 = one per CPU).
func WithWorkers(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("%w: negative worker count %d", ErrBadConfig, n)
		}
		s.workers = n
		s.workersSet = true
		return nil
	}
}

// WithEvaluator supplies a caller-owned evaluator instead of having
// the session construct a backend — for example a NativeEngine shared
// across sessions, or a custom decorated pipeline. The session does
// not close it, and WithBackend/WithWorkers do not combine with it;
// WithStatistic may accompany it purely as a declaration of what the
// evaluator computes (surfaced by Session.Statistic).
func WithEvaluator(ev Evaluator) Option {
	return func(s *settings) error {
		if ev == nil {
			return fmt.Errorf("%w: nil evaluator", ErrBadConfig)
		}
		s.eval = ev
		s.evalSet = true
		return nil
	}
}

// WithJobLimit caps the number of background jobs (Session.Start)
// running concurrently on the session; further Start calls fail with
// an error wrapping ErrSessionBusy until a running job finishes. The
// default (0) is no cap: concurrent jobs are safe and share the
// session's backend. Synchronous Session.Run calls are not counted —
// the limit exists for serving layers, which only Start.
func WithJobLimit(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("%w: negative job limit %d", ErrBadConfig, n)
		}
		s.jobLimit = n
		s.jobLimitSet = true
		return nil
	}
}

// WithShardSize routes the session's evaluation through a sharded
// view of the dataset: SNP columns are partitioned into shards of n
// columns (0 = DefaultShardSize) loaded on demand into a small set of
// hot shards, so evaluation touches only the columns a candidate
// needs. Results are bit-identical to the monolithic backend. Only the
// native backend shards; WithBackend(BackendPool/BackendPVM) and
// WithEvaluator do not combine with it. See also WithSpillDir.
func WithShardSize(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("%w: negative shard size %d", ErrBadConfig, n)
		}
		s.shardSize = n
		s.shardSizeSet = true
		return nil
	}
}

// WithSpillDir spills the session's shards to write-once files under
// dir (created if needed): shards are materialized to disk on first
// use and re-read on demand, so a large table never has to be fully
// resident in memory. Implies sharding (at DefaultShardSize unless
// WithShardSize chooses another); a restarted process pointed at the
// same directory reuses the spilled files. Combines and conflicts
// exactly as WithShardSize does.
func WithSpillDir(dir string) Option {
	return func(s *settings) error {
		if dir == "" {
			return fmt.Errorf("%w: empty spill directory", ErrBadConfig)
		}
		s.spillDir = dir
		s.spillDirSet = true
		return nil
	}
}

// WithGAConfig sets the GA parameters (zero fields take the paper's
// §5.2.1 defaults). At session level it becomes the default for every
// run; at run level it replaces the session default for that run.
func WithGAConfig(cfg GAConfig) Option {
	return func(s *settings) error {
		s.gaCfg = cfg
		s.gaSet = true
		return nil
	}
}

// WithIslands selects the asynchronous island-model engine for the
// run: the per-size subpopulations are partitioned across n islands,
// each evolving in its own goroutine with its own generation loop and
// exchanging elites over bounded non-blocking channels in a ring (see
// WithMigration). The islands share the session's evaluation backend
// — and its memoizing cache — so every worker stays busy with no
// global generation barrier.
//
// n = 0 (the default) keeps the synchronous paper-fidelity engine.
// n = 1 runs the island machinery degenerately and is guaranteed
// bit-identical to the synchronous run for the same GAConfig. Values
// beyond the number of haplotype sizes are clamped to one island per
// size. Accepted at session level (default for every run) and at run
// level (override for that run; WithIslands(0) switches a run back to
// the synchronous engine).
//
// In island mode, TraceEntry streams carry one entry per island per
// local generation, stamped with TraceEntry.Island, and the GAResult
// of a multi-island run carries per-island statistics in
// GAResult.Islands. Multi-island trajectories are deterministic only
// up to migration timing; see the internal/island package
// documentation for the full determinism contract.
func WithIslands(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("%w: negative island count %d", ErrBadConfig, n)
		}
		s.islands = n
		s.islandsSet = true
		return nil
	}
}

// WithMigration tunes the island model's elite exchange: every
// interval of its own generations an island ships the best count
// members of each subpopulation it hosts to the next island in the
// ring. Zero values keep the defaults (interval 10, count 1);
// negative values are rejected. The option only configures runs that
// also select islands — a run that resolves to WithMigration without
// WithIslands(n >= 1) fails with ErrBadConfig. Accepted at session
// and run level, like WithIslands.
func WithMigration(interval, count int) Option {
	return func(s *settings) error {
		if interval < 0 || count < 0 {
			return fmt.Errorf("%w: negative migration parameter (interval %d, count %d)", ErrBadConfig, interval, count)
		}
		s.migInterval = interval
		s.migCount = count
		s.migSet = true
		return nil
	}
}

// WithTrace registers a per-generation observer, called synchronously
// from the GA loop after every generation (in island mode, from each
// island's loop, serialized so entries never interleave mid-call and
// stamped with TraceEntry.Island). For streamed, non-blocking
// consumption prefer Session.Start and the Job's Progress channel; a
// trace function is the right tool for cheap inline bookkeeping (and
// is what the deprecated GAConfig.OnGeneration callback maps to). A
// nil fn clears a session-level trace for one run.
func WithTrace(fn func(TraceEntry)) Option {
	return func(s *settings) error {
		s.trace = fn
		s.traceSet = true
		return nil
	}
}
