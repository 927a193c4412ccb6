package main

// serve-51: a real ldserve child process under a closed loop of one
// client per CPU, each holding at most one connection and its own
// session.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/serve"
)

// The traffic mix below is chosen, not measured from users: the jobs
// carry the load, and the write path rides beside them at a fixed
// share of cycles so that the mix does not shift when the server gets
// faster or slower.
const (
	// serveJobSeeds is how many GA seeds the jobs draw from; each has
	// an in-process reference result computed during set-up, so the
	// count trades set-up time against clients repeating one job.
	serveJobSeeds = 8
	// serveGenerations caps every served job. Below the stagnation
	// limit of 100 every job runs exactly this many generations, and
	// on a warm cache its compute stays within a few milliseconds.
	serveGenerations = 8
	// sessionJobs is how many jobs a client runs on one session before
	// it opens the next; the server's janitor evicts the idle one with
	// its job records. A jobs page is then always read from a session
	// of 1 to sessionJobs jobs, and the registry holds about as many
	// jobs as the clients finish within the session TTL, however long
	// the run lasts.
	sessionJobs = 32
	// uploadCycles: every uploadCycles-th cycle of a client first
	// uploads a fresh dataset and opens a session on it.
	uploadCycles = 8
	// freshBases is how many 51-SNP datasets set-up generates; every
	// upload renames one SNP of one of them, so each upload is new to
	// the server.
	freshBases = 4
	// serveSetupRepeats is how many times a run boots a server and sets
	// it up; set-up is short, so more repeats steady its median.
	serveSetupRepeats = 9
	// heapEvery is how often a client samples the server's heap.
	heapEvery = 200 * time.Millisecond
	// jobsPage is the page size of the jobs listing each cycle reads.
	jobsPage = 10
	// sessionTTL, datasetTTL and sweepEvery make the server's janitor
	// forget idle sessions and datasets within seconds, so its job
	// records and backends stay bounded during a run.
	sessionTTL = 2 * time.Second
	datasetTTL = 2 * time.Second
	sweepEvery = 500 * time.Millisecond
)

// serveJobConfig is the small job every client submits: sizes 2-3,
// population 24, the paper's other defaults, capped at
// serveGenerations.
func serveJobConfig(seed uint64) repro.GAConfig {
	return repro.GAConfig{MinSize: 2, MaxSize: 3, PopulationSize: 24, MaxGenerations: serveGenerations, Seed: seed}
}

// server is a running ldserve child.
type server struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
}

// startServer boots ldserve on a free loopback port with the default
// in-memory store, no auth or rate limit, /metrics and /debug/runtime,
// short idle-eviction limits, and waits until it answers.
func startServer(cfg config) (*server, error) {
	if cfg.ldserve == "" {
		return nil, errors.New("serve-51 needs --ldserve")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(filepath.Join(cfg.out, "ldserve.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(cfg.ldserve, "-addr", addr, "-metrics", "-debug-runtime", "-quiet",
		"-session-ttl", sessionTTL.String(), "-dataset-ttl", datasetTTL.String(), "-sweep", sweepEvery.String())
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	c := serve.NewClient(s.base, hc)
	for wait := time.Now().Add(15 * time.Second); ; {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := c.Metrics(ctx)
		cancel()
		if err == nil {
			return s, nil
		}
		if time.Now().After(wait) {
			s.stop()
			return nil, fmt.Errorf("ldserve on %s never answered: %w", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM and waits for it to exit.
func (s *server) stop() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
	s.log.Close()
}

// serveRef is the study dataset and the in-process reference result of
// every job seed, computed once before the timed set-ups.
type serveRef struct {
	text  []byte
	id    string
	seeds []uint64
	want  map[uint64]*repro.GAResult
}

// serveState is one set-up's outcome.
type serveState struct {
	serveRef
	srv      *server
	sessions []string // one per client
	fresh    []*repro.Dataset
}

// newHTTPClient is one load client's transport: at most one
// connection, kept alive across requests.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: drainOnClose{&http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

// drainOnClose reads a response body to its end before closing it.
// serve.Client.StreamEvents returns at the terminal SSE frame, just
// before the server ends the stream; without the drain the transport
// would drop the connection and every job would dial a new one.
type drainOnClose struct{ *http.Transport }

func (t drainOnClose) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.Transport.RoundTrip(req)
	if err == nil {
		resp.Body = drainingBody{resp.Body}
	}
	return resp, err
}

type drainingBody struct{ io.ReadCloser }

func (b drainingBody) Close() error {
	io.Copy(io.Discard, b.ReadCloser) // the stream ends right after its terminal frame
	return b.ReadCloser.Close()
}

// serveOps holds the client-side timings of every operation.
type serveOps struct {
	cycle, job, first, read, get, list, upload, session, submit, stream samples
	compute                                                             samples // the server's own elapsed time per job
	frames, jobs, generations, rotations                                atomic.Int64
	heap                                                                samples // heap_alloc bytes, stored as durations
	attempted, failed                                                   atomic.Int64
	mu                                                                  sync.Mutex
	failures                                                            []string
}

func (o *serveOps) fail(format string, args ...any) {
	o.failed.Add(1)
	o.mu.Lock()
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
	o.mu.Unlock()
}

// op counts one attempted operation and its outcome.
func (o *serveOps) op(err error, what string) bool {
	o.attempted.Add(1)
	if err != nil {
		o.fail("%s: %v", what, err)
		return false
	}
	return true
}

func runServe(cfg config) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	var up uploads
	ref, err := serveReference(ctx, cfg, rep, &up)
	if err != nil {
		return nil, err
	}
	st, setup, err := repeatSetup(serveSetupRepeats, func() (serveState, error) { return serveSetup(ctx, cfg, rep, ref) },
		func(st serveState) { st.srv.stop() })
	defer st.srv.stop()
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = sec(setup)

	// The admin client reads /metrics only while the load clients are
	// not running, and holds no connection while they are.
	adminHTTP := newHTTPClient()
	admin := serve.NewClient(st.srv.base, adminHTTP)
	before, err := admin.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	adminHTTP.CloseIdleConnections()
	var ops serveOps
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var next atomic.Int64 // fresh upload counter
	var heapDue atomic.Int64
	start := time.Now()
	heapDue.Store(int64(heapEvery))
	end := deadline(cfg)
	var wg sync.WaitGroup
	for c := 0; c < cfg.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := newHTTPClient()
			defer hc.CloseIdleConnections()
			cl := serve.NewClient(st.srv.base, hc)
			session := st.sessions[c]
			for i := uint64(1); time.Now().Before(end); i++ {
				if due := heapDue.Load(); int64(time.Since(start)) >= due && heapDue.CompareAndSwap(due, due+int64(heapEvery)) {
					ri, err := cl.Runtime(ctx)
					if ops.op(err, "GET /debug/runtime") {
						ops.heap.add(time.Duration(ri.HeapAllocBytes))
					}
				}
				if i%uploadCycles == 0 {
					uploadFresh(ctx, cl, st.fresh, next.Add(1), &ops, rec)
				}
				if i%sessionJobs == 0 {
					sess, err := cl.CreateSession(ctx, serve.SessionRequest{DatasetID: st.id, Workers: cfg.nproc})
					if !ops.op(err, "next session") {
						return
					}
					session = sess.ID
					ops.rotations.Add(1)
				}
				seed := st.seeds[mix(uint64(c), i)%uint64(len(st.seeds))]
				serveCycle(ctx, cl, st.want[seed], session, seed, &ops, rec)
			}
		}(c)
	}
	wg.Wait()
	window := time.Since(start)
	after, err := admin.Metrics(ctx)
	if err != nil {
		return nil, err
	}

	rep.attempted += int(ops.attempted.Load())
	rep.failed += int(ops.failed.Load())
	rep.checksFailed = append(rep.checksFailed, ops.failures...)
	m := rep.metrics
	jobTail, _ := ops.job.tail()
	readTail, _ := ops.read.tail()
	m["run_s"] = sec(ops.cycle.median())
	m["evals_per_s"] = float64(after.Evaluations.Requests-before.Evaluations.Requests) / window.Seconds()
	m["live_heap_mb"] = float64(ops.heap.median()) / (1 << 20)
	m["job_p50_ms"] = ms(ops.job.median())
	m["job_tail_ms"] = ms(jobTail)
	m["first_event_p50_ms"] = ms(ops.first.median())
	m["read_p50_ms"] = ms(ops.read.median())
	m["read_tail_ms"] = ms(readTail)
	m["upload_p50_ms"] = ms(ops.upload.median())
	m["jobs_per_s"] = float64(ops.jobs.Load()) / window.Seconds()
	rep.notes["run_s"] = fmt.Sprintf("median client cycle of %d", ops.cycle.len())
	rep.notes["job_tail_ms"] = ops.job.tailNote()
	rep.notes["read_tail_ms"] = ops.read.tailNote()
	rep.notes["upload_p50_ms"] = fmt.Sprintf("median of %d uploads", ops.upload.len())
	rep.notes["live_heap_mb"] = fmt.Sprintf("median server heap_alloc of %d samples", ops.heap.len())
	rep.linef("closed loop: %d clients, %d jobs in %.2fs, %d uploads, %d session rotations",
		cfg.nproc, ops.jobs.Load(), window.Seconds(), ops.upload.len(), ops.rotations.Load())
	compute := ops.compute.median()
	rep.linef("server compute per job p50 %.3fms = %.1f%% of job p50 %.3fms",
		ms(compute), 100*ratio(float64(compute), float64(ops.job.median())), ms(ops.job.median()))

	if cfg.trace {
		serveLayers(rep, &ops, &up, before, after)
		path, err := spanPath(cfg)
		if err != nil {
			return nil, err
		}
		rep.linef("spans: %s (%d dropped)", path, rec.dropped)
		if err := rec.write(path); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// serveReference generates the study dataset and runs every job seed
// in process; the served jobs must reproduce these results. It also
// times the genotype layer's share of an upload on the same table text
// the server parses.
func serveReference(ctx context.Context, cfg config, rep *report, up *uploads) (serveRef, error) {
	ref := serveRef{want: make(map[uint64]*repro.GAResult)}
	d, err := repro.Paper51Dataset(cfg.seed)
	if err != nil {
		return ref, err
	}
	if ref.text, err = tableText(d); err != nil {
		return ref, err
	}
	ref.id = fmt.Sprintf("ds-%016x", d.Fingerprint())
	noop := func(*repro.Dataset) (func(), error) { return func() {}, nil }
	if err := up.ingestN(rep, 3, d, ref.text, noop); err != nil {
		return ref, err
	}
	local, err := repro.NewSession(d, repro.WithWorkers(cfg.nproc))
	if err != nil {
		return ref, err
	}
	defer local.Close()
	for k := 0; k < serveJobSeeds; k++ {
		seed := mix(cfg.seed, uint64(k))
		res, err := local.Run(ctx, repro.WithGAConfig(serveJobConfig(seed)))
		if err != nil {
			return ref, fmt.Errorf("reference run: %w", err)
		}
		ref.seeds = append(ref.seeds, seed)
		ref.want[seed] = res
	}
	return ref, nil
}

// serveSetup boots the server, uploads the study dataset, opens one
// session per client on it, generates the bases of the fresh uploads,
// and warms the server's cache with one job per seed.
func serveSetup(ctx context.Context, cfg config, rep *report, ref serveRef) (serveState, error) {
	st := serveState{serveRef: ref}
	srv, err := startServer(cfg)
	if err != nil {
		return st, err
	}
	st.srv = srv
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	cl := serve.NewClient(srv.base, hc)
	info, err := cl.CreateDataset(ctx, serve.DatasetRequest{Format: serve.FormatTable, Content: string(ref.text)})
	if err != nil {
		return st, fmt.Errorf("upload: %w", err)
	}
	rep.check(info.ID == ref.id, "uploaded dataset id %s, want %s from its fingerprint", info.ID, ref.id)
	for c := 0; c < cfg.nproc; c++ {
		sess, err := cl.CreateSession(ctx, serve.SessionRequest{DatasetID: info.ID, Workers: cfg.nproc})
		if err != nil {
			return st, fmt.Errorf("session: %w", err)
		}
		st.sessions = append(st.sessions, sess.ID)
	}

	for j := 0; j < freshBases; j++ {
		fd, err := repro.Paper51Dataset(mix(cfg.seed, uint64(1<<20+j)))
		if err != nil {
			return st, err
		}
		st.fresh = append(st.fresh, fd)
	}

	var ops serveOps
	for k, seed := range st.seeds {
		serveCycle(ctx, cl, st.want[seed], st.sessions[k%len(st.sessions)], seed, &ops, nil)
	}
	rep.attempted += int(ops.attempted.Load())
	rep.failed += int(ops.failed.Load())
	rep.checksFailed = append(rep.checksFailed, ops.failures...)
	return st, nil
}

// freshText is the table text of upload n: one of the base datasets
// with its first SNP renamed after n, so that its fingerprint, and
// with it the server's dataset id, is new.
func freshText(bases []*repro.Dataset, n int64) ([]byte, error) {
	base := bases[n%int64(len(bases))]
	d := *base
	d.SNPs = append(d.SNPs[:0:0], base.SNPs...)
	d.SNPs[0].Name = fmt.Sprintf("%s-u%d", base.SNPs[0].Name, n)
	return tableText(&d)
}

// uploadFresh uploads fresh dataset n and opens a session on it.
func uploadFresh(ctx context.Context, cl *serve.Client, bases []*repro.Dataset, n int64, ops *serveOps, rec *recorder) {
	text, err := freshText(bases, n)
	if !ops.op(err, "fresh dataset") {
		return
	}
	t0 := time.Now()
	info, err := cl.CreateDataset(ctx, serve.DatasetRequest{Format: serve.FormatTable, Content: string(text)})
	t1 := time.Now()
	if !ops.op(err, "upload") {
		return
	}
	ops.upload.add(t1.Sub(t0))
	_, err = cl.CreateSession(ctx, serve.SessionRequest{DatasetID: info.ID})
	t2 := time.Now()
	if !ops.op(err, "session on fresh dataset") {
		return
	}
	ops.session.add(t2.Sub(t1))
	if rec != nil {
		parent := rec.record("serve.upload_cycle", 0, t0, t2, 0)
		rec.record("serve.upload", parent, t0, t1, 0)
		rec.record("serve.session", parent, t1, t2, 0)
	}
}

// serveCycle is one client cycle: submit a job, stream its SSE to the
// terminal frame, GET the job, list one jobs page of the client's
// session. The GET and the list together are one read: a client
// showing a job's status page makes both. The job's result must equal
// the in-process reference for its seed.
func serveCycle(ctx context.Context, cl *serve.Client, want *repro.GAResult, session string, seed uint64, ops *serveOps, rec *recorder) {
	t0 := time.Now()
	ji, err := cl.StartJob(ctx, session, serve.JobRequest{Config: serveJobConfig(seed)})
	t1 := time.Now()
	if !ops.op(err, "submit") {
		return
	}
	ops.submit.add(t1.Sub(t0))
	var first time.Time
	frames := 0
	done, err := cl.StreamEvents(ctx, ji.ID, func(serve.Event) error {
		if first.IsZero() {
			first = time.Now()
		}
		frames++
		return nil
	})
	t2 := time.Now()
	if err == nil && done == nil {
		err = errors.New("stream ended without a terminal frame")
	}
	if !ops.op(err, "stream") {
		return
	}
	ops.job.add(t2.Sub(t0))
	ops.stream.add(t2.Sub(t1))
	ops.first.add(first.Sub(t0))
	ops.frames.Add(int64(frames))
	ops.jobs.Add(1)
	ops.attempted.Add(1)
	if done.State != serve.JobDone || !sameBest(want, done.Result) {
		ops.fail("job %s (seed %d) ended %s with a result unlike the in-process run", ji.ID, seed, done.State)
	} else {
		ops.generations.Add(int64(done.Result.Generations))
		ops.compute.add(done.Report.Elapsed)
	}

	_, err = cl.Job(ctx, ji.ID)
	t3 := time.Now()
	if !ops.op(err, "get job") {
		return
	}
	ops.get.add(t3.Sub(t2))
	_, err = cl.Jobs(ctx, serve.JobsQuery{SessionID: session, Limit: jobsPage})
	t4 := time.Now()
	if !ops.op(err, "list jobs") {
		return
	}
	ops.list.add(t4.Sub(t3))
	ops.read.add(t4.Sub(t2))
	ops.cycle.add(t4.Sub(t0))
	if rec != nil {
		parent := rec.record("serve.cycle", 0, t0, t4, 0)
		rec.record("serve.submit", parent, t0, t1, 0)
		rec.record("serve.stream", parent, t1, t2, frames)
		rec.record("serve.get", parent, t2, t3, 0)
		rec.record("serve.list", parent, t3, t4, 0)
	}
}

// serveLayers fills the per-layer metrics a served run can see: the
// client-side timing of each call, the server's /metrics, and the
// genotype layer timed in process on the uploaded text.
func serveLayers(rep *report, ops *serveOps, up *uploads, before, after serve.MetricsInfo) {
	m := rep.metrics
	zeroLayers(m)
	m["genotype.pack_s"] = sec(up.pack.median())
	m["genotype.qc_s"] = sec(up.qc.median())
	dReq := after.Evaluations.Requests - before.Evaluations.Requests
	dComp := after.Evaluations.Computed - before.Evaluations.Computed
	m["engine.requests"] = float64(dReq)
	m["engine.computed"] = float64(dComp)
	m["engine.hit_rate"] = ratio(float64(after.Evaluations.CacheHits-before.Evaluations.CacheHits), float64(dReq))
	m["engine.coalesced"] = float64(after.Evaluations.Coalesced - before.Evaluations.Coalesced)
	m["engine.cache_entries"] = float64(after.Evaluations.CacheEntries)
	m["core.generations"] = float64(ops.generations.Load())
	m["core.run_s"] = sec(ops.compute.sum())
	m["serve.upload_ms"] = ms(ops.upload.median())
	m["serve.session_ms"] = ms(ops.session.median())
	m["serve.submit_ms"] = ms(ops.submit.median())
	m["serve.first_event_ms"] = ms(ops.first.median())
	m["serve.stream_ms"] = ms(ops.stream.median())
	m["serve.frames_per_job"] = ratio(float64(ops.frames.Load()), float64(ops.jobs.Load()))
	m["serve.read_ms"] = ms(ops.get.median())
	m["serve.list_ms"] = ms(ops.list.median())
	m["serve.server_p50_ms"] = float64(after.Latency.P50NS) / 1e6
	m["serve.engine_computed"] = float64(dComp)
	rep.notes["trace.overhead"] = "no decorators run inside the server; spans are client-side"
	rep.notes["core.run_s"] = "sum of the served jobs' elapsed time as the server reports it"
	rep.notes["serve.server_p50_ms"] = "server-side request latency p50 since boot, from /metrics"
	job := ops.job.median()
	rep.linef("job p50 %.3fms = submit %.3fms + stream %.3fms (medians; first frame at %.3fms)",
		ms(job), ms(ops.submit.median()), ms(ops.stream.median()), ms(ops.first.median()))
}
