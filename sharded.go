package repro

import (
	"fmt"

	"repro/internal/ehdiall"
	"repro/internal/engine"
	"repro/internal/shard"
)

// DefaultShardSize is the number of SNP columns per shard when
// WithShardSize is not given (or given 0).
const DefaultShardSize = shard.DefaultShardSize

// ShardPlan describes how a dataset's SNP columns are partitioned into
// shards; see ShardedEngine.Plan.
type ShardPlan = shard.Plan

// SweepResult is the outcome document of a sharded, checkpointed
// window sweep (internal/shard.RunSweep): shard and window counts, how
// many shards a restart resumed, and the best-scoring window.
type SweepResult = shard.SweepResult

// ShardedEngine is the native engine running over a sharded view of
// the dataset: fitness evaluation gathers only the SNP columns a
// candidate touches from a shard source (in-memory, or spilled to
// write-once files under a spill directory) with a small LRU of hot
// shards, so a large table never has to be fully resident. Values are
// bit-identical to the monolithic engine; memo-cache keys carry the
// fingerprints of the touched shards. It implements ParallelEvaluator.
type ShardedEngine struct {
	*NativeEngine
	src shard.Source
}

// Plan returns the engine's shard partitioning.
func (e *ShardedEngine) Plan() ShardPlan { return e.src.Plan() }

// Close stops the engine's workers and releases the shard source
// (cached shards and any spill handles).
func (e *ShardedEngine) Close() {
	e.NativeEngine.Close()
	e.src.Close()
}

// NewShardedEngine builds a native engine over a sharded view of the
// dataset: shardSize SNP columns per shard (0 = DefaultShardSize),
// spilled on demand to write-once files under spillDir when non-empty
// (the directory is created; a restarted process pointed at the same
// directory reuses the files), served from memory otherwise. workers
// sizes the evaluation pool (0 = one per CPU). Close it when done.
func NewShardedEngine(d *Dataset, stat Statistic, shardSize int, spillDir string, workers int) (*ShardedEngine, error) {
	var (
		src shard.Source
		err error
	)
	if spillDir != "" {
		src, err = shard.NewSpill(d, spillDir, shardSize, 0)
	} else {
		src, err = shard.NewMem(d, shardSize, 0)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	ev, err := shard.NewEvaluator(src, d, stat, ehdiall.Config{})
	if err != nil {
		src.Close()
		return nil, fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	// The plan already holds the dataset's fingerprint (the source
	// hashed d for it, and NewEvaluator trusts a source built from d),
	// so the genotypes are hashed once.
	eng, err := engine.New(ev, engine.Options{Workers: workers, Fingerprint: src.Plan().Parent})
	if err != nil {
		src.Close()
		return nil, err
	}
	return &ShardedEngine{NativeEngine: eng, src: src}, nil
}

var _ ParallelEvaluator = (*ShardedEngine)(nil)
