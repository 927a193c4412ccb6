package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro"
	"repro/internal/shard"
)

// sweepHandle runs one sharded window sweep (shard.RunSweep). Its
// stream is TraceEntry progress as generation frames — Generation
// carries completed shards, Evaluations the windows evaluated in this
// life — and its outcome is the SweepResult, surfaced as
// JobInfo.Sweep.
type sweepHandle struct {
	started  time.Time
	progress chan repro.TraceEntry
	done     chan struct{}

	mu     sync.Mutex
	status shard.SweepStatus
	res    *shard.SweepResult
	err    error
}

// startSweep validates a sweep request and launches it over the
// session's sharded engine. Checkpoints go to a storeSink keyed by the
// job id, so a sweep relaunched under the same id resumes from them
// (shard.DiscardSink when the registry discards records).
func (r *Registry) startSweep(ctx context.Context, se *sessionEntry, id string, req JobRequest) (runHandle, error) {
	if req.Islands != 0 || req.MigrationInterval != 0 || req.MigrationCount != 0 {
		return nil, fmt.Errorf("%w: sweep jobs run no GA; island and migration options do not apply", repro.ErrBadConfig)
	}
	if se.sharded == nil {
		return nil, fmt.Errorf("%w: sweep jobs require a sharded session (create it with shard_size >= 1)", repro.ErrBadConfig)
	}
	cfg := shard.SweepConfig{Size: req.Sweep.Size, Stride: req.Sweep.Stride}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", repro.ErrBadConfig, err)
	}
	var sink shard.Sink = shard.DiscardSink{}
	if !r.storeDiscards() {
		sink = newStoreSink(r.store, id)
	}
	h := &sweepHandle{
		started:  time.Now(),
		progress: make(chan repro.TraceEntry, subscriberBuffer),
		done:     make(chan struct{}),
	}
	go h.run(ctx, se.sharded, cfg, sink)
	return h, nil
}

func (h *sweepHandle) run(ctx context.Context, eng *repro.ShardedEngine, cfg shard.SweepConfig, sink shard.Sink) {
	res, err := shard.RunSweep(ctx, eng, eng.Plan(), cfg, sink, func(st shard.SweepStatus) {
		h.mu.Lock()
		h.status = st
		h.mu.Unlock()
		conflatedSend(h.progress, repro.TraceEntry{
			Generation:  st.ShardsDone,
			Evaluations: st.Evaluated,
		})
	})
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		err = fmt.Errorf("%w: sweep stopped after %d of %d shards", repro.ErrCanceled, res.Done, res.Shards)
	}
	h.mu.Lock()
	h.res, h.err = res, err
	h.mu.Unlock()
	close(h.done)     // result is readable before the stream ends…
	close(h.progress) // …so events returns only after the run has ended
}

func (h *sweepHandle) wait() error {
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

func (h *sweepHandle) events(emit func(frame)) {
	for e := range h.progress {
		emit(generationFrame(e))
	}
}

// Report is shard progress in GA-report clothing.
func (h *sweepHandle) Report() repro.JobReport {
	rep := repro.JobReport{Elapsed: time.Since(h.started)}
	select {
	case <-h.done:
	default:
		rep.Running = true
	}
	h.mu.Lock()
	rep.Generation = h.status.ShardsDone
	rep.Evaluations = h.status.Evaluated
	h.mu.Unlock()
	return rep
}

// fill sets the shard progress, preferring the final result once the
// run has ended, and the sweep outcome once the job is terminal.
func (h *sweepHandle) fill(ji *JobInfo) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.res == nil {
		ji.Shards = &ShardProgress{
			Total:     h.status.ShardsTotal,
			Done:      h.status.ShardsDone,
			Evaluated: h.status.Evaluated,
		}
		return
	}
	ji.Shards = &ShardProgress{
		Total:     h.res.Shards,
		Done:      h.res.Done,
		Resumed:   h.res.Resumed,
		Evaluated: h.res.Evaluated,
	}
	if ji.State != JobRunning {
		ji.Sweep = h.res
	}
}

// storeSink persists sweep checkpoints as CAS-versioned records in the
// registry's store, keyed by the job id. Concurrent writers (a
// restarted server racing a not-quite-dead predecessor on a shared
// store) are reconciled by merging their completed-shard sets and
// retrying the Put, so no completed shard is ever lost.
type storeSink struct {
	store Store
	jobID string
	ver   int64
}

func newStoreSink(store Store, jobID string) *storeSink {
	return &storeSink{store: store, jobID: jobID}
}

// Load implements shard.Sink.
func (s *storeSink) Load() (*shard.Checkpoint, error) {
	rec, err := s.store.Get(KindCheckpoint, s.jobID)
	if errors.Is(err, ErrNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var cp shard.Checkpoint
	if err := json.Unmarshal(rec.Data, &cp); err != nil {
		return nil, nil // corrupt checkpoint: start the sweep fresh
	}
	s.ver = rec.Version
	return &cp, nil
}

// Save implements shard.Sink with a bounded CAS retry loop.
func (s *storeSink) Save(cp *shard.Checkpoint) error {
	for attempt := 0; ; attempt++ {
		b, err := json.Marshal(cp)
		if err != nil {
			return err
		}
		rec, err := s.store.Put(KindCheckpoint, Record{ID: s.jobID, Version: s.ver, Data: b})
		if err == nil {
			s.ver = rec.Version
			return nil
		}
		if !errors.Is(err, ErrVersionConflict) || attempt >= 3 {
			return err
		}
		// Lost a CAS race: merge the other writer's completed shards
		// into ours and retry at the current version.
		cur, gerr := s.store.Get(KindCheckpoint, s.jobID)
		if gerr != nil {
			if errors.Is(gerr, ErrNotFound) {
				s.ver = 0 // deleted under us: recreate
				continue
			}
			return gerr
		}
		s.ver = cur.Version
		var other shard.Checkpoint
		if jerr := json.Unmarshal(cur.Data, &other); jerr == nil &&
			other.Parent == cp.Parent && other.NumSNPs == cp.NumSNPs &&
			other.Rows == cp.Rows && other.ShardSize == cp.ShardSize &&
			other.Size == cp.Size && other.Stride == cp.Stride {
			cp.Completed = shard.MergeCompleted(cp.Completed, other.Completed)
		}
	}
}
