package serve

import (
	"context"
	"errors"
	"strconv"
	"sync"

	"repro"
)

// runHandle is the one seam between the registry and a job kind: a GA
// run (gaHandle), a portfolio race (raceHandle) or a sharded window
// sweep (sweepHandle). The registry launches, stops, drains, streams
// and persists every kind through it without branching on the kind.
// Stopping is the launch context's cancel; a handle only reports.
type runHandle interface {
	// Report snapshots live progress.
	Report() repro.JobReport
	// wait blocks until the run ends and returns its error: nil on
	// success, wrapping repro.ErrCanceled after a stop or drain.
	wait() error
	// events drains the run's own stream, handing each update to emit
	// as an SSE frame, and returns once the stream has ended — after
	// the run has, so its outcome is readable.
	events(emit func(frame))
	// fill adds the kind's section to ji: Result for a GA run, Race for
	// a race, Shards and Sweep for a sweep. The outcome parts are set
	// once ji.State is no longer JobRunning.
	fill(ji *JobInfo)
}

var (
	_ runHandle = gaHandle{}
	_ runHandle = raceHandle{}
	_ runHandle = (*sweepHandle)(nil)
)

// frame is one SSE event of a job's stream: the event name, its id
// (empty for none) and the JSON payload.
type frame struct {
	event string
	id    string
	data  any
}

// generationFrame is the frame of one GA generation or sweep progress
// step; its id is the generation (completed shards for a sweep).
func generationFrame(e repro.TraceEntry) frame {
	return frame{event: EventGeneration, id: strconv.Itoa(e.Generation), data: e}
}

// boardFrame is the frame of one race leaderboard; its id is the
// board's sequence number.
func boardFrame(b repro.RaceBoard) frame {
	return frame{event: EventLeaderboard, id: strconv.FormatInt(b.Seq, 10), data: b}
}

// finalFrames is what a subscriber to a finished job — live or
// restored — receives before done: a race's final leaderboard. GA and
// sweep jobs end with done alone.
func finalFrames(ji JobInfo) []frame {
	if ji.Race != nil {
		return []frame{boardFrame(ji.Race.Board)}
	}
	return nil
}

// gaHandle runs one GA job (repro.Session.Start).
type gaHandle struct{ *repro.Job }

func (h gaHandle) wait() error {
	_, err := h.Wait()
	return err
}

func (h gaHandle) events(emit func(frame)) {
	for e := range h.Progress() {
		emit(generationFrame(e))
	}
}

func (h gaHandle) fill(ji *JobInfo) {
	if ji.State != JobRunning {
		ji.Result, _ = h.Wait() // partial after a stop
	}
}

// startGA starts a GA job via Session.Start. Island options ride
// along when requested; their validation errors (negative counts,
// migration without islands) surface as ErrBadConfig → HTTP 400.
func startGA(ctx context.Context, se *sessionEntry, _ string, req JobRequest) (runHandle, error) {
	opts := []repro.Option{repro.WithGAConfig(req.Config)}
	if req.Islands != 0 {
		opts = append(opts, repro.WithIslands(req.Islands))
	}
	if req.MigrationInterval != 0 || req.MigrationCount != 0 {
		opts = append(opts, repro.WithMigration(req.MigrationInterval, req.MigrationCount))
	}
	j, err := se.sess.Start(ctx, opts...)
	if err != nil {
		return nil, err
	}
	return gaHandle{j}, nil
}

// jobEntry is the registry's record of one job. While the run is
// live, run is its handle and every read asks it. When the run ends,
// the pump builds the terminal status once, persists it and stores it
// as final in place of run. From then on GET, DELETE, listings, the
// done frame and the stored record are that one document, and the
// handle, with everything it holds, is released. A job restored from
// the store is a finished entry from the start.
type jobEntry struct {
	id        string
	sessionID string
	req       *JobRequest        // persisted with the record so restore can resume sweeps
	cancel    context.CancelFunc // DELETE and drain both go through the context path
	storeVer  int64              // the running record's store version, set before the pump starts
	// ended is closed once final is set: the run is over, its session
	// slot free and its outcome persisted.
	ended chan struct{}

	mu        sync.Mutex
	run       runHandle // nil once finished
	final     JobInfo   // the terminal status, once run is nil
	subs      map[chan frame]struct{}
	latest    frame
	hasLatest bool
}

// finishedEntry is the entry of a job whose status is already final:
// one restored from the store.
func finishedEntry(info JobInfo) *jobEntry {
	ended := make(chan struct{})
	close(ended)
	return &jobEntry{id: info.ID, sessionID: info.SessionID, cancel: func() {}, ended: ended, final: info}
}

// subscriberBuffer is each SSE subscriber's channel capacity. Like
// Job.Progress, a full buffer conflates: the oldest frame is dropped
// so a slow client misses old updates and never blocks anything.
const subscriberBuffer = 16

// pump drains the run's stream and fans each frame out to every
// subscriber with per-subscriber conflation. When the run ends it
// builds the final status, frees the session slot, persists the
// status and only then swaps it in for the handle and closes the
// subscriber channels, so a client that has seen done can start its
// next job at once and reads the document a restart restores. Runs as
// one goroutine per job; the only writer of run.
func (je *jobEntry) pump(r *Registry) {
	defer r.jobsWG.Done()
	je.run.events(je.publish)
	final := je.status(je.run, true)
	r.releaseSlot(je.sessionID)
	r.persistJobFinal(je, final)
	je.mu.Lock()
	je.run, je.final = nil, final
	for ch := range je.subs {
		close(ch)
	}
	je.subs = nil
	close(je.ended)
	je.mu.Unlock()
	r.running.Add(-1)
}

// publish records f as the latest frame and hands it to every
// subscriber.
func (je *jobEntry) publish(f frame) {
	je.mu.Lock()
	je.latest = f
	je.hasLatest = true
	for ch := range je.subs {
		conflatedSend(ch, f)
	}
	je.mu.Unlock()
}

// hasSubscribers reports whether any event stream is attached.
func (je *jobEntry) hasSubscribers() bool {
	je.mu.Lock()
	defer je.mu.Unlock()
	return len(je.subs) > 0
}

// conflatedSend delivers v to ch without ever blocking: when the
// buffer is full the oldest value is dropped to make room, exactly
// like Job.Progress.
func conflatedSend[T any](ch chan T, v T) {
	for {
		select {
		case ch <- v:
			return
		default:
		}
		select {
		case <-ch: // conflate: drop the oldest buffered value
		default:
		}
	}
}

// subscribe registers a new conflated frame channel, pre-seeded with
// the latest frame so a late joiner sees current state at once. It
// returns a nil channel once the job is finished (the caller serves
// finalFrames instead). off detaches (idempotent; pump may
// concurrently close the channel).
func (je *jobEntry) subscribe() (<-chan frame, func()) {
	je.mu.Lock()
	defer je.mu.Unlock()
	if je.run == nil {
		return nil, nil
	}
	ch := make(chan frame, subscriberBuffer)
	if je.hasLatest {
		ch <- je.latest
	}
	if je.subs == nil {
		je.subs = make(map[chan frame]struct{})
	}
	je.subs[ch] = struct{}{}
	off := func() {
		je.mu.Lock()
		defer je.mu.Unlock()
		if _, ok := je.subs[ch]; ok {
			delete(je.subs, ch)
			close(ch)
		}
	}
	return ch, off
}

// info is the job's wire status: asked of the run handle while the
// run is live, the final document once it is finished.
func (je *jobEntry) info() JobInfo {
	je.mu.Lock()
	h, final := je.run, je.final
	je.mu.Unlock()
	if h == nil {
		return final
	}
	return je.status(h, false)
}

// status assembles the job's wire status from its run handle: state
// JobRunning while the run is live, and once it has ended (ended
// true) the terminal state, error and outcome.
func (je *jobEntry) status(h runHandle, ended bool) JobInfo {
	ji := JobInfo{
		ID:        je.id,
		SessionID: je.sessionID,
		State:     JobRunning,
		Report:    h.Report(),
	}
	if ended {
		err := h.wait() // ended: returns immediately
		switch {
		case err == nil:
			ji.State = JobDone
		case errors.Is(err, repro.ErrCanceled):
			ji.State = JobCanceled
			ji.Error = err.Error()
		default:
			ji.State = JobFailed
			ji.Error = err.Error()
		}
	}
	h.fill(&ji)
	return ji
}
