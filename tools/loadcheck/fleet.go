package main

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/serve"
)

// Latency classes the recorder aggregates client-side observations
// into. Reads and mutations get p99 SLO bounds; the SSE class measures
// time-to-first-event of a fresh subscription (the stream itself is
// open-ended, so its total duration is not a latency).
const (
	classRead = "read"
	classMut  = "mutate"
	classSSE  = "sse_first_event"
)

// callTimeout bounds every non-streaming request a fleet worker makes,
// so one wedged call cannot silently stall a worker for the whole
// soak.
const callTimeout = 15 * time.Second

// recorder aggregates client-observed latencies per class. Exact
// percentiles (sorted samples, not histogram estimates) are affordable
// here because the client keeps every observation in memory — unlike
// the server, whose /metrics histogram is fixed-size by design. The
// BENCH document carries both views.
type recorder struct {
	mu      sync.Mutex
	classes map[string]*classRec

	// dedupViolations counts preset uploads whose fingerprint id
	// changed for a previously seen seed — which must never happen.
	dedupViolations atomic.Int64
}

// classRec is one class's raw observations.
type classRec struct {
	samples []time.Duration
	errors  int64
}

func newRecorder() *recorder {
	return &recorder{classes: make(map[string]*classRec)}
}

// observe records one call outcome. Calls cut short by the soak
// deadline are discarded: they measure the window closing, not the
// server.
func (r *recorder) observe(ctx context.Context, class string, d time.Duration, err error) {
	if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.classes[class]
	if c == nil {
		c = &classRec{}
		r.classes[class] = c
	}
	if err != nil {
		c.errors++
		return
	}
	c.samples = append(c.samples, d)
}

// ClassStats is the per-class aggregate written to BENCH_serve.json.
// Latencies are milliseconds (floats), exact over all samples.
type ClassStats struct {
	// Count is the number of successful calls measured.
	Count int `json:"count"`
	// Errors is the number of calls that returned an error (soak-
	// deadline cancellations excluded).
	Errors int64 `json:"errors"`
	// P50MS, P90MS, P99MS and MaxMS are exact quantiles of the
	// samples, in milliseconds.
	P50MS float64 `json:"p50_ms"`
	// P90MS is documented with P50MS above.
	P90MS float64 `json:"p90_ms"`
	// P99MS is documented with P50MS above.
	P99MS float64 `json:"p99_ms"`
	// MaxMS is documented with P50MS above.
	MaxMS float64 `json:"max_ms"`
}

// snapshot sorts each class's samples and derives its stats.
func (r *recorder) snapshot() map[string]ClassStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]ClassStats, len(r.classes))
	for name, c := range r.classes {
		sort.Slice(c.samples, func(i, j int) bool { return c.samples[i] < c.samples[j] })
		st := ClassStats{Count: len(c.samples), Errors: c.errors}
		if n := len(c.samples); n > 0 {
			st.P50MS = ms(c.samples[n*50/100])
			st.P90MS = ms(c.samples[n*90/100])
			st.P99MS = ms(c.samples[n*99/100])
			st.MaxMS = ms(c.samples[n-1])
		}
		out[name] = st
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// fleets is the split of -clients across the five workload shapes.
type fleets struct {
	pollers, sse, sessioners, uploaders, jobbers int
}

// splitFleets apportions n clients: 40% pollers (reads dominate real
// traffic), 20% SSE subscribers, 15% session churners, 15% uploaders,
// and the remainder job runners.
func splitFleets(n int) fleets {
	f := fleets{
		pollers:    n * 40 / 100,
		sse:        n * 20 / 100,
		sessioners: n * 15 / 100,
		uploaders:  n * 15 / 100,
	}
	f.jobbers = n - f.pollers - f.sse - f.sessioners - f.uploaders
	return f
}

// runFleet launches n workers of one shape, each tagged with its index.
func runFleet(ctx context.Context, wg *sync.WaitGroup, n int, worker func(ctx context.Context, id int)) {
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			worker(ctx, id)
		}(i)
	}
}

// timed runs one client call under the per-call timeout and records it.
func timed(ctx context.Context, rec *recorder, class string, call func(context.Context) error) {
	cctx, cancel := context.WithTimeout(ctx, callTimeout)
	defer cancel()
	start := time.Now()
	err := call(cctx)
	rec.observe(ctx, class, time.Since(start), err)
}

// poller cycles through the read surface: job listings with cursor
// pagination, dataset and session listings, the metrics document, and
// the runtime counters.
func poller(ctx context.Context, client *serve.Client, rec *recorder, id int) {
	for i := id; ctx.Err() == nil; i++ {
		switch i % 5 {
		case 0:
			// Paginate the job listing a few pages deep: cursors over a
			// churning id space must stay valid.
			cursor := ""
			for page := 0; page < 3; page++ {
				var list serve.JobList
				timed(ctx, rec, classRead, func(c context.Context) error {
					var err error
					list, err = client.Jobs(c, serve.JobsQuery{Cursor: cursor, Limit: 5})
					return err
				})
				cursor = list.NextCursor
				if cursor == "" {
					break
				}
			}
		case 1:
			timed(ctx, rec, classRead, func(c context.Context) error {
				_, err := client.Datasets(c, "", 10)
				return err
			})
		case 2:
			timed(ctx, rec, classRead, func(c context.Context) error {
				_, err := client.Sessions(c, "", 10)
				return err
			})
		case 3:
			timed(ctx, rec, classRead, func(c context.Context) error {
				_, err := client.Metrics(c)
				return err
			})
		case 4:
			timed(ctx, rec, classRead, func(c context.Context) error {
				_, err := client.Runtime(c)
				return err
			})
		}
		sleepCtx(ctx, 50*time.Millisecond)
	}
}

// uploader exercises dataset upload dedup and churn: most uploads
// repeat a small set of preset seeds (same fingerprint, same id — the
// dedup path), every 20th uses a fresh seed (a brand-new dataset and
// store write). A seed whose id ever changes is a dedup violation.
func uploader(ctx context.Context, client *serve.Client, rec *recorder, id int) {
	seen := make(map[uint64]string)
	for i := 1; ctx.Err() == nil; i++ {
		seed := uint64(id%4 + 1)
		fresh := i%20 == 0
		if fresh {
			seed = uint64(1_000_000 + id*100_000 + i)
		}
		var ds serve.DatasetInfo
		var err error
		timed(ctx, rec, classMut, func(c context.Context) error {
			ds, err = client.CreateDataset(c, serve.DatasetRequest{
				Format: serve.FormatPreset, Preset: 51, Seed: seed,
			})
			return err
		})
		if err == nil && !fresh {
			if prev, ok := seen[seed]; ok && prev != ds.ID {
				rec.dedupViolations.Add(1)
			}
			seen[seed] = ds.ID
		}
		sleepCtx(ctx, 50*time.Millisecond)
	}
}

// sessioner churns sessions: create one on the shared dataset, read it
// back, fetch its engine stats, and abandon it to TTL eviction (the
// API has no session delete by design — idle eviction is the
// lifecycle).
func sessioner(ctx context.Context, client *serve.Client, rec *recorder, datasetID string) {
	for ctx.Err() == nil {
		var sess serve.SessionInfo
		var err error
		timed(ctx, rec, classMut, func(c context.Context) error {
			sess, err = client.CreateSession(c, serve.SessionRequest{DatasetID: datasetID})
			return err
		})
		if err == nil {
			timed(ctx, rec, classRead, func(c context.Context) error {
				_, err := client.Session(c, sess.ID)
				return err
			})
			timed(ctx, rec, classRead, func(c context.Context) error {
				_, err := client.Stats(c, sess.ID)
				return err
			})
		}
		sleepCtx(ctx, 50*time.Millisecond)
	}
}

// jobber owns one session and runs small GA jobs on it back to back:
// start, stream to completion, read the final document. Job starts are
// mutations; the post-completion fetch is a read.
func jobber(ctx context.Context, client *serve.Client, rec *recorder, id int, datasetID string) {
	sess, err := client.CreateSession(ctx, serve.SessionRequest{DatasetID: datasetID})
	if err != nil {
		rec.observe(ctx, classMut, 0, err)
		return
	}
	for i := 0; ctx.Err() == nil; i++ {
		var job serve.JobInfo
		timed(ctx, rec, classMut, func(c context.Context) error {
			var err error
			job, err = client.StartJob(c, sess.ID, serve.JobRequest{
				Config: smallConfig(uint64(id*10_000 + i + 1)),
			})
			return err
		})
		if job.ID == "" {
			sleepCtx(ctx, 100*time.Millisecond)
			continue
		}
		// The stream runs under the soak context directly: a job takes
		// well under a second, and the mass-DELETE cleans up any run
		// the deadline cuts short.
		if _, err := client.StreamEvents(ctx, job.ID, nil); err != nil {
			rec.observe(ctx, classSSE, 0, err)
			continue
		}
		timed(ctx, rec, classRead, func(c context.Context) error {
			_, err := client.Job(c, job.ID)
			return err
		})
		// Pace the GA load: back-to-back jobs with no gap would turn
		// the soak into a pure CPU benchmark of the evaluation pool.
		sleepCtx(ctx, 250*time.Millisecond)
	}
}

// errPlannedDisconnect is the reconnector's mid-stream drop: returned
// from the event callback, it aborts the stream like a client going
// away would.
var errPlannedDisconnect = errors.New("planned disconnect")

// sseSubscriber attaches to the long-running soak jobs. Even-numbered
// workers are deliberately slow consumers (5ms per event — the
// server's per-subscriber conflation must absorb them without stalling
// the GA or other subscribers); odd-numbered workers drop the stream
// after a few events and resubscribe, the mid-stream reconnect
// pattern. Both record time-to-first-event per subscription; the
// late-subscriber seed makes that the subscribe round-trip, not a
// generation wait.
func sseSubscriber(ctx context.Context, client *serve.Client, rec *recorder, id int, soakJobs []string) {
	jobID := soakJobs[id%len(soakJobs)]
	slow := id%2 == 0
	for ctx.Err() == nil {
		// The safety timeout only trips when the server serves no
		// events at all for a long stretch — that is a real failure,
		// not a planned disconnect.
		sctx, cancel := context.WithTimeout(ctx, 20*time.Second)
		start := time.Now()
		first := false
		events := 0
		_, err := client.StreamEvents(sctx, jobID, func(ev serve.Event) error {
			if !first {
				first = true
				rec.observe(ctx, classSSE, time.Since(start), nil)
			}
			events++
			if slow {
				sleepCtx(sctx, 5*time.Millisecond)
				return nil
			}
			if events >= 3 {
				return errPlannedDisconnect
			}
			return nil
		})
		cancel()
		switch {
		case errors.Is(err, errPlannedDisconnect) || ctx.Err() != nil:
			// A planned drop, or the soak window closed.
		case !first:
			rec.observe(ctx, classSSE, 0, errors.New("stream ended before any event"))
		case err != nil:
			rec.observe(ctx, classSSE, 0, err)
		}
	}
}

// sampler polls GET /debug/runtime through the soak and keeps the
// peaks; the final reading comes from the settle loop in main.
type sampler struct {
	mu            sync.Mutex
	maxGoroutines int
	maxHeap       uint64
	samples       int
}

func newSampler(baseline serve.RuntimeInfo) *sampler {
	return &sampler{maxGoroutines: baseline.Goroutines, maxHeap: baseline.HeapAllocBytes}
}

func (s *sampler) run(ctx context.Context, client *serve.Client) {
	for ctx.Err() == nil {
		ri, err := client.Runtime(ctx)
		if err == nil {
			s.mu.Lock()
			s.samples++
			if ri.Goroutines > s.maxGoroutines {
				s.maxGoroutines = ri.Goroutines
			}
			if ri.HeapAllocBytes > s.maxHeap {
				s.maxHeap = ri.HeapAllocBytes
			}
			s.mu.Unlock()
		}
		sleepCtx(ctx, 250*time.Millisecond)
	}
}

// peaks returns the observed maxima and the sample count.
func (s *sampler) peaks() (goroutines int, heap uint64, samples int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxGoroutines, s.maxHeap, s.samples
}

// sleepCtx sleeps d or until ctx ends, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
