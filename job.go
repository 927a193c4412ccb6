package repro

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Job is a GA run executing in the background, started with
// Session.Start. It streams per-generation progress, snapshots its
// live state on demand, and can be waited on or stopped; Stop and a
// cancelled context both yield the partial result accumulated so far.
// This is the handle a serving layer exposes: one Job per submitted
// study run.
type Job struct {
	session  *Session
	cancel   context.CancelFunc
	progress chan TraceEntry
	done     chan struct{}
	started  time.Time

	mu sync.Mutex // guards the fields below
	// latest holds the most recent trace entry per island, keyed by
	// TraceEntry.Island (a synchronous run uses the single key 0).
	// Report merges them into one snapshot.
	latest map[int]TraceEntry
	traced bool
	result *GAResult
	err    error
	ended  time.Time // set when done closes
}

// progressBuffer is the Job progress channel's capacity. A consumer
// that keeps up sees every generation; when the buffer fills, the
// oldest entries are dropped so the stream conflates toward the newest
// state and the GA never blocks on a slow consumer.
const progressBuffer = 16

// Start launches one GA run in the background and returns its Job
// handle immediately. Configuration errors surface synchronously (the
// run is validated before the goroutine starts); the run itself
// terminates when it converges, hits its generation cap, or ctx is
// cancelled. Run-level options (WithGAConfig, WithTrace) override the
// session defaults for this job only.
//
// Concurrent Start calls are safe: the jobs run simultaneously and
// share the session's backend (and its memoizing cache). A session
// built with WithJobLimit instead rejects Start with an error
// wrapping ErrSessionBusy while that many jobs are still running.
func (s *Session) Start(ctx context.Context, opts ...Option) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.reserveJob(); err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	j := &Job{
		session:  s,
		cancel:   cancel,
		progress: make(chan TraceEntry, progressBuffer),
		done:     make(chan struct{}),
		started:  time.Now(),
	}
	ga, err := s.prepare(opts, j.publish)
	if err != nil {
		cancel()
		s.releaseJob()
		return nil, err
	}
	go func() {
		defer cancel()
		res, err := ga.RunContext(runCtx)
		j.mu.Lock()
		j.result = res
		j.err = wrapRunErr(err)
		j.ended = time.Now()
		j.mu.Unlock()
		s.releaseJob()
		// done closes first: a consumer that drains Progress to its
		// close must then observe a finished job (Report not Running,
		// Wait immediate), as the Progress contract promises.
		close(j.done)
		close(j.progress)
	}()
	return j, nil
}

// reserveJob claims one background job slot, enforcing the session's
// WithJobLimit cap atomically so racing Start calls can never
// overshoot it.
func (s *Session) reserveJob() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	if s.jobLimit > 0 && s.activeJobs >= s.jobLimit {
		return fmt.Errorf("%w: %d jobs already running (limit %d)", ErrSessionBusy, s.activeJobs, s.jobLimit)
	}
	s.activeJobs++
	return nil
}

// releaseJob returns a slot claimed by reserveJob.
func (s *Session) releaseJob() {
	s.mu.Lock()
	s.activeJobs--
	s.mu.Unlock()
}

// publish delivers one generation's trace entry to the stream and the
// snapshot. It never blocks the GA: when the progress buffer is full,
// the oldest entry is dropped to make room.
func (j *Job) publish(e TraceEntry) {
	j.mu.Lock()
	if j.latest == nil {
		j.latest = make(map[int]TraceEntry)
	}
	j.latest[e.Island] = e
	j.traced = true
	j.mu.Unlock()
	for {
		select {
		case j.progress <- e:
			return
		default:
		}
		select {
		case <-j.progress: // conflate: drop the oldest buffered entry
		default:
		}
	}
}

// Progress returns the per-generation progress stream. The channel is
// closed when the run finishes (after which Wait returns immediately).
// Entries are conflated, never blocking: a slow consumer misses old
// generations, not new ones. For an island-model run the stream
// interleaves every island's entries — each stamped with
// TraceEntry.Island and carrying only that island's sizes and local
// counters; Report merges them into one snapshot.
func (j *Job) Progress() <-chan TraceEntry { return j.progress }

// Done returns a channel closed when the run has finished and its
// result is available.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the run finishes and returns its outcome. After a
// cancellation (context or Stop) the result is the partial outcome and
// the error wraps ErrCanceled; both are stable across repeated calls.
func (j *Job) Wait() (*GAResult, error) {
	<-j.done
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Stop cancels the run and waits for it to wind down, returning the
// partial result accumulated up to the last completed generation
// together with an error wrapping ErrCanceled. Stopping a finished job
// just returns its outcome.
func (j *Job) Stop() (*GAResult, error) {
	j.cancel()
	return j.Wait()
}

// JobReport is a live snapshot of a running (or finished) job: the
// latest generation's trace, wall-clock elapsed time, and — when the
// session's backend tracks counters — the evaluation engine's report.
// The json field names are part of the public wire format (the
// serving layer's job status endpoint returns a JobReport verbatim)
// and are stable; Elapsed is encoded in nanoseconds under
// "elapsed_ns".
type JobReport struct {
	// Running is false once the result is available.
	Running bool `json:"running"`
	// Generation is the latest completed generation (zero before the
	// first completes). An island-model run reports the furthest
	// island's local count.
	Generation int `json:"generation"`
	// Evaluations is the run's evaluation count so far; for an
	// island-model run, the sum of the islands' local counts.
	Evaluations int64 `json:"evaluations"`
	// BestBySize maps haplotype size to the best fitness found so
	// far, unioned across islands in an island-model run.
	BestBySize map[int]float64 `json:"best_by_size"`
	// Stagnation is the number of generations since the last
	// improvement; an island-model run reports the minimum across
	// islands (the most active island's view).
	Stagnation int `json:"stagnation"`
	// Elapsed is the wall-clock time since Start while the run is
	// live, and the run's duration once it has ended.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Engine carries the backend counters, nil when untracked.
	Engine *EngineReport `json:"engine,omitempty"`
	// Islands carries each island's latest trace entry (ordered by
	// island number) for an island-model run; nil for synchronous
	// runs.
	Islands []TraceEntry `json:"islands,omitempty"`
}

// Report snapshots the job's live state. It is safe to call at any
// time from any goroutine — the handle an HTTP status endpoint polls.
func (j *Job) Report() JobReport {
	var rep JobReport
	select {
	case <-j.done:
	default:
		rep.Running = true
	}
	j.mu.Lock()
	rep.Elapsed = elapsed(j.started, j.ended)
	if j.traced {
		rep.BestBySize = make(map[int]float64)
		first := true
		islands := make([]int, 0, len(j.latest))
		for isl, e := range j.latest {
			islands = append(islands, isl)
			if e.Generation > rep.Generation {
				rep.Generation = e.Generation
			}
			rep.Evaluations += e.Evaluations
			if first || e.Stagnation < rep.Stagnation {
				rep.Stagnation = e.Stagnation
			}
			first = false
			for s, v := range e.BestBySize {
				if cur, ok := rep.BestBySize[s]; !ok || v > cur {
					rep.BestBySize[s] = v
				}
			}
		}
		sort.Ints(islands)
		if islands[0] != 0 { // island-model run: attach per-island entries
			rep.Islands = make([]TraceEntry, 0, len(islands))
			for _, isl := range islands {
				rep.Islands = append(rep.Islands, j.latest[isl])
			}
		}
	}
	j.mu.Unlock()
	if er, ok := j.session.Report(); ok {
		rep.Engine = &er
	}
	return rep
}

// elapsed is a run's wall-clock time: since started while it is live
// (ended zero), and ended − started once it has finished.
func elapsed(started, ended time.Time) time.Duration {
	if ended.IsZero() {
		return time.Since(started)
	}
	return ended.Sub(started)
}
