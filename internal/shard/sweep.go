package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/ehdiall"
	"repro/internal/fitness"
)

// SweepConfig tunes a sharded window sweep. The zero value scans every
// adjacent SNP pair.
type SweepConfig struct {
	// Size is the window width in SNPs (default 2, max ehdiall.MaxSNPs
	// via the evaluator's own bound).
	Size int
	// Stride is the step between window anchors (default 1). Anchors
	// are global — s = 0, Stride, 2*Stride, … — so the window set does
	// not depend on the shard size.
	Stride int
}

func (c SweepConfig) withDefaults() SweepConfig {
	if c.Size == 0 {
		c.Size = 2
	}
	if c.Stride == 0 {
		c.Stride = 1
	}
	return c
}

// Validate rejects a config no sweep could run: negative sizes, or
// windows wider than the EM estimator accepts.
func (c SweepConfig) Validate() error {
	c = c.withDefaults()
	if c.Size < 1 || c.Stride < 1 {
		return fmt.Errorf("shard: invalid sweep config (size %d, stride %d)", c.Size, c.Stride)
	}
	if c.Size > ehdiall.MaxSNPs {
		return fmt.Errorf("shard: sweep window size %d exceeds %d", c.Size, ehdiall.MaxSNPs)
	}
	return nil
}

// ShardResult is one completed shard of a sweep: how many windows it
// owned, and the best-scoring one. A shard owns the windows anchored
// inside its column range; a window may extend into the next shard.
type ShardResult struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Windows is the number of windows anchored in the shard.
	Windows int `json:"windows"`
	// Errored counts windows that failed with ErrEmptyGroup (no
	// complete-case individuals) and were skipped.
	Errored int `json:"errored,omitempty"`
	// Best is the best window's site set (nil when every window
	// errored or the shard owned none).
	Best []int `json:"best,omitempty"`
	// Fitness is Best's score (meaningless when Best is nil).
	Fitness float64 `json:"fitness"`
}

// Checkpoint is the durable progress document of one sweep: the plan
// and config it belongs to, plus every completed shard's result. A
// restarted sweep loads it, verifies the identity fields, and skips
// the completed shards.
type Checkpoint struct {
	// Parent is the dataset fingerprint, 16 hex digits.
	Parent string `json:"parent"`
	// NumSNPs, Rows and ShardSize pin the plan.
	NumSNPs int `json:"num_snps"`
	// Rows is the plan's individual count.
	Rows int `json:"rows"`
	// ShardSize is the plan's SNP columns per shard.
	ShardSize int `json:"shard_size"`
	// Size and Stride pin the window set.
	Size int `json:"size"`
	// Stride is the sweep's anchor step.
	Stride int `json:"stride"`
	// Completed holds one entry per finished shard, in completion
	// order.
	Completed []ShardResult `json:"completed"`
}

// NewCheckpoint builds the empty checkpoint of a sweep.
func NewCheckpoint(plan Plan, cfg SweepConfig) *Checkpoint {
	cfg = cfg.withDefaults()
	return &Checkpoint{
		Parent:    fmt.Sprintf("%016x", plan.Parent),
		NumSNPs:   plan.NumSNPs,
		Rows:      plan.Rows,
		ShardSize: plan.ShardSize,
		Size:      cfg.Size,
		Stride:    cfg.Stride,
	}
}

// Matches reports whether the checkpoint belongs to this plan and
// config — the guard that keeps a sweep from resuming another sweep's
// progress.
func (c *Checkpoint) Matches(plan Plan, cfg SweepConfig) bool {
	cfg = cfg.withDefaults()
	return c != nil &&
		c.Parent == fmt.Sprintf("%016x", plan.Parent) &&
		c.NumSNPs == plan.NumSNPs && c.Rows == plan.Rows &&
		c.ShardSize == plan.ShardSize &&
		c.Size == cfg.Size && c.Stride == cfg.Stride
}

// Sink persists sweep checkpoints. Load returns the previous
// checkpoint (nil when none exists); Save persists the checkpoint
// after each completed shard. A Sink backed by a CAS store must merge
// concurrent writers' Completed sets rather than losing either (see
// MergeCompleted). RunSweep calls Load once, then Save serially.
type Sink interface {
	// Load returns the previous checkpoint, or nil when none exists.
	Load() (*Checkpoint, error)
	// Save persists cp; RunSweep calls it after each completed shard.
	Save(cp *Checkpoint) error
}

// DiscardSink is the no-op Sink of an unresumable sweep.
type DiscardSink struct{}

// Load implements Sink; there is never a previous checkpoint.
func (DiscardSink) Load() (*Checkpoint, error) { return nil, nil }

// Save implements Sink by dropping the checkpoint.
func (DiscardSink) Save(*Checkpoint) error { return nil }

// MergeCompleted unions two completed-shard lists, keeping one entry
// per shard index (a's entry wins ties) in ascending index order. CAS
// sinks use it to reconcile concurrent checkpoint writers.
func MergeCompleted(a, b []ShardResult) []ShardResult {
	byShard := make(map[int]ShardResult, len(a)+len(b))
	for _, r := range b {
		byShard[r.Shard] = r
	}
	for _, r := range a {
		byShard[r.Shard] = r
	}
	out := make([]ShardResult, 0, len(byShard))
	for _, r := range byShard {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
}

// SweepStatus is the progress snapshot RunSweep hands its observer
// after every completed shard.
type SweepStatus struct {
	// ShardsDone counts completed shards (resumed ones included);
	// ShardsTotal is the plan's shard count.
	ShardsDone, ShardsTotal int
	// Evaluated counts windows evaluated in this life (resumed shards
	// contribute nothing — that is the point).
	Evaluated int64
	// Best is the best window found so far across all completed
	// shards.
	Best ShardResult
}

// SweepResult is a finished (or cancelled) sweep's outcome.
type SweepResult struct {
	// ShardSize and Size/Stride echo the effective configuration.
	ShardSize int `json:"shard_size"`
	// Size is the window width in SNPs.
	Size int `json:"size"`
	// Stride is the step between window anchors.
	Stride int `json:"stride"`
	// Shards is the plan's shard count; Done the number completed.
	Shards int `json:"shards"`
	// Done counts completed shards, resumed ones included.
	Done int `json:"done"`
	// Resumed counts shards restored from the checkpoint instead of
	// being evaluated in this life.
	Resumed int `json:"resumed"`
	// TotalWindows sums Windows over completed shards; Evaluated
	// counts windows actually evaluated in this life; Errored the
	// skipped ones.
	TotalWindows int `json:"total_windows"`
	// Evaluated counts windows evaluated in this life.
	Evaluated int64 `json:"evaluated"`
	// Errored counts windows skipped with ErrEmptyGroup.
	Errored int `json:"errored,omitempty"`
	// Best is the best window across all completed shards (Best.Best
	// nil when nothing scored).
	Best ShardResult `json:"best"`
	// PerShard holds every completed shard's result in index order.
	PerShard []ShardResult `json:"per_shard,omitempty"`
}

// windowsOf enumerates the windows anchored in shard m: site sets
// {s, s+1, …, s+size-1} for every global anchor s inside [Start, End)
// with the whole window in range. The windows share one backing array,
// each capped at its own length, so an append to one cannot write into
// the next.
func windowsOf(m Meta, plan Plan, cfg SweepConfig) [][]int {
	first := m.Start
	if rem := first % cfg.Stride; rem != 0 {
		first += cfg.Stride - rem
	}
	last := min(m.End-1, plan.NumSNPs-cfg.Size)
	if last < first {
		return nil
	}
	n := (last-first)/cfg.Stride + 1
	out := make([][]int, n)
	sites := make([]int, n*cfg.Size)
	for j := range out {
		w := sites[j*cfg.Size : (j+1)*cfg.Size : (j+1)*cfg.Size]
		for i := range w {
			w[i] = first + j*cfg.Stride + i
		}
		out[j] = w
	}
	return out
}

// RunSweep scans every haplotype window of the plan, shard by shard,
// scoring windows through ev (batch-capable evaluators fan each
// shard's windows across their workers). After each shard it saves a
// checkpoint through sink and notifies observe (both optional). A
// checkpoint loaded from sink that matches the plan and config marks
// its shards done without re-evaluating a single window — the
// restart-resume contract: life 2 evaluates strictly fewer windows and
// merges to the identical final result, because windows are anchored
// globally and per-shard bests are deterministic.
//
// Cancelling ctx stops the sweep at the next window batch; the partial
// SweepResult (everything completed so far, all checkpointed) comes
// back with an error wrapping ctx.Err().
func RunSweep(ctx context.Context, ev fitness.Evaluator, plan Plan, cfg SweepConfig, sink Sink, observe func(SweepStatus)) (*SweepResult, error) {
	if ev == nil {
		return nil, fmt.Errorf("shard: nil evaluator")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	if sink == nil {
		sink = DiscardSink{}
	}

	cp, err := sink.Load()
	if err != nil {
		return nil, fmt.Errorf("shard: loading checkpoint: %w", err)
	}
	if !cp.Matches(plan, cfg) {
		cp = NewCheckpoint(plan, cfg) // none, or another sweep's: start fresh
	}
	done := make(map[int]ShardResult, len(cp.Completed))
	for _, r := range cp.Completed {
		if r.Shard >= 0 && r.Shard < plan.NumShards() {
			done[r.Shard] = r
		}
	}

	res := &SweepResult{
		ShardSize: plan.ShardSize,
		Size:      cfg.Size,
		Stride:    cfg.Stride,
		Shards:    plan.NumShards(),
		Resumed:   len(done),
	}
	var runErr error
	for _, m := range plan.Metas {
		if _, ok := done[m.Index]; ok {
			continue
		}
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		windows := windowsOf(m, plan, cfg)
		values, errs := fitness.EvaluateAllContext(ctx, ev, windows)
		sr := ShardResult{Shard: m.Index, Windows: len(windows), Fitness: math.Inf(-1)}
		best := -1
		for i := range windows {
			if err := errs[i]; err != nil {
				if errors.Is(err, fitness.ErrEmptyGroup) {
					sr.Errored++
					continue
				}
				runErr = err
				break
			}
			if best < 0 || values[i] > sr.Fitness {
				best, sr.Fitness = i, values[i]
			}
		}
		if runErr != nil {
			break
		}
		if best < 0 {
			sr.Fitness = 0
		} else {
			// A copy, so the result does not pin the shard's windows.
			sr.Best = make([]int, cfg.Size)
			copy(sr.Best, windows[best])
		}
		done[m.Index] = sr
		cp.Completed = append(cp.Completed, sr)
		res.Evaluated += int64(len(windows))
		if err := sink.Save(cp); err != nil {
			runErr = fmt.Errorf("shard: saving checkpoint: %w", err)
			break
		}
		if observe != nil {
			observe(SweepStatus{
				ShardsDone:  len(done),
				ShardsTotal: plan.NumShards(),
				Evaluated:   res.Evaluated,
				Best:        bestOf(done),
			})
		}
	}

	res.Done = len(done)
	res.PerShard = make([]ShardResult, 0, len(done))
	for _, r := range done {
		res.PerShard = append(res.PerShard, r)
	}
	sort.Slice(res.PerShard, func(i, j int) bool { return res.PerShard[i].Shard < res.PerShard[j].Shard })
	for _, r := range res.PerShard {
		res.TotalWindows += r.Windows
		res.Errored += r.Errored
	}
	res.Best = bestOf(done)
	return res, runErr
}

// bestOf picks the best completed shard's window, scanning in shard
// index order so the answer is deterministic regardless of completion
// (or resume) order: higher fitness wins, the lower shard index wins
// ties.
func bestOf(done map[int]ShardResult) ShardResult {
	idx := make([]int, 0, len(done))
	for i := range done {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	best := ShardResult{Fitness: math.Inf(-1)}
	for _, i := range idx {
		r := done[i]
		if r.Best == nil {
			continue
		}
		if best.Best == nil || r.Fitness > best.Fitness {
			best = r
		}
	}
	if best.Best == nil {
		best.Fitness = 0
	}
	return best
}
