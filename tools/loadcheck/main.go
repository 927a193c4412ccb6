// Command loadcheck is the load/soak harness of the serving layer. It
// boots a real ldserve process, hammers it with configurable fleets of
// concurrent clients — dataset uploads with dedup churn, session
// create/abandon cycles, background GA jobs, SSE subscribers
// (including deliberately slow consumers and mid-stream reconnects),
// and list/paginate/metrics pollers — while sampling per-endpoint
// latency and the server's goroutine/heap counters through
// GET /debug/runtime. When the soak window closes it asserts the
// service-level objectives:
//
//   - p99 latency bounds per endpoint class (reads, mutations, and
//     time-to-first-SSE-event), scaled by -relax for loaded CI boxes,
//   - zero client-visible request errors,
//   - zero running jobs after the mass-DELETE drain (no job leaks),
//   - goroutine count settled back to the post-warmup baseline (no
//     goroutine leaks from streams, jobs, or evaluation backends),
//   - dataset upload dedup stayed consistent under churn (the same
//     preset+seed always answered the same fingerprint id).
//
// Two more scenarios get servers of their own: a SIGKILL mid-sweep
// that must resume from its checkpoint on the next boot, and a
// rate-limited profile that must answer overflow with 429 and a usable
// Retry-After. The run writes BENCH_serve.json: client latency
// classes, the server's /metrics document (fixed-bound histogram
// included), the goroutine/heap series, and the SLO verdicts. Because
// the histogram bucket bounds are fixed, two snapshots taken weeks
// apart can be diffed bucket by bucket; see docs/API.md ("Performance
// trajectory").
//
// Evaluation-engine throughput is not measured here: the Go benchmarks
// in the repo root (BenchmarkBackendGA, BenchmarkRace,
// BenchmarkPackedKernel, BenchmarkShardedEval) and the repository
// benchmark (perfbench, BENCHMARK.json) own those numbers and gates.
//
// Usage:
//
//	go run ./tools/loadcheck                      # full profile, repo root
//	go run ./tools/loadcheck -ldserve bin/ldserve # reuse a built binary
//	go run ./tools/loadcheck -clients 48 -duration 8s -relax 4 -out .
//
// Any SLO violation exits nonzero with a diagnostic; BENCH_serve.json
// is written either way (a failing snapshot is still a data point).
// Every exit, failing ones included, first stops the servers the run
// started and removes its temp dirs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/serve"
)

func main() {
	var (
		bin       = flag.String("ldserve", "", "path to the ldserve binary (default: build it into a temp dir)")
		clients   = flag.Int("clients", 200, "total concurrent clients across all fleets")
		duration  = flag.Duration("duration", 15*time.Second, "soak window length")
		out       = flag.String("out", ".", "directory BENCH_serve.json is written to")
		relax     = flag.Float64("relax", 1, "multiplier on the latency SLO bounds (loaded CI boxes need headroom)")
		shardSNPs = flag.Int("shard-snps", 12000, "SNP count of the sharded kill-and-restart scenario's study; 0 skips the scenario")
		rateRPS   = flag.Float64("rate", 25, "requests/second of the rate-limit scenario's server; 0 skips the scenario")
		rateBurst = flag.Int("rate-burst", 30, "burst size of the rate-limit scenario's server")
		apiKey    = flag.String("api-key", "loadcheck-secret", "API key to run the server with")
	)
	flag.Parse()
	defer releaseOwned()
	if *clients < 8 {
		fatalf("-clients %d too small: the fleets need at least 8", *clients)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatalf("out dir: %v", err)
	}

	binPath := ensureBinary(*bin)
	dataDir := tempDir("loadcheck-*")

	addr := freeAddr()
	proc := startServer(binPath, addr, dataDir, *apiKey)

	// One pooled transport for every fleet worker: without a widened
	// idle pool, hundreds of concurrent clients would thrash TCP
	// connections and measure the dialer instead of the server.
	transport := &http.Transport{
		MaxIdleConns:        *clients * 2,
		MaxIdleConnsPerHost: *clients * 2,
		IdleConnTimeout:     90 * time.Second,
	}
	client := serve.NewClient("http://"+addr, &http.Client{Transport: transport}, serve.WithAPIKey(*apiKey))
	ctx := context.Background()

	// Warmup: one dataset, one session, one completed job. This pulls
	// the shared evaluation backend, the job pump and the HTTP plumbing
	// into existence before the goroutine baseline is taken, so the
	// leak SLO measures growth, not lazy initialization.
	ds, err := client.CreateDataset(ctx, serve.DatasetRequest{Format: serve.FormatPreset, Preset: 51, Seed: 1})
	if err != nil {
		fatalf("warmup upload: %v", err)
	}
	sess, err := client.CreateSession(ctx, serve.SessionRequest{DatasetID: ds.ID})
	if err != nil {
		fatalf("warmup session: %v", err)
	}
	job, err := client.StartJob(ctx, sess.ID, serve.JobRequest{Config: smallConfig(1)})
	if err != nil {
		fatalf("warmup job: %v", err)
	}
	if final, err := client.StreamEvents(ctx, job.ID, nil); err != nil || final == nil || final.State != serve.JobDone {
		fatalf("warmup job did not finish: %+v, %v", final, err)
	}
	baseline, err := client.Runtime(ctx)
	if err != nil {
		fatalf("warmup runtime read: %v", err)
	}
	fmt.Printf("loadcheck: warmed up — dataset %s, baseline %d goroutines, %d MiB heap\n",
		ds.ID, baseline.Goroutines, baseline.HeapAllocBytes>>20)

	// Soak jobs: long-running GA jobs (one on the island engine) that
	// the SSE fleet subscribes to. They stop only at the mass-DELETE.
	soakSess, err := client.CreateSession(ctx, serve.SessionRequest{DatasetID: ds.ID})
	if err != nil {
		fatalf("soak session: %v", err)
	}
	var soakJobs []string
	for i := 0; i < 3; i++ {
		req := serve.JobRequest{Config: soakConfig(uint64(100 + i))}
		if i == 2 {
			req.Islands = 2
		}
		j, err := client.StartJob(ctx, soakSess.ID, req)
		if err != nil {
			fatalf("soak job %d: %v", i, err)
		}
		soakJobs = append(soakJobs, j.ID)
	}

	// The soak window: every fleet loops until the deadline.
	rec := newRecorder()
	fleetCtx, cancelFleet := context.WithTimeout(ctx, *duration)
	defer cancelFleet()
	sampler := newSampler(baseline)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); sampler.run(fleetCtx, client) }()

	f := splitFleets(*clients)
	fmt.Printf("loadcheck: soaking %s with %d clients (%d pollers, %d sse, %d sessioners, %d uploaders, %d jobbers)\n",
		*duration, *clients, f.pollers, f.sse, f.sessioners, f.uploaders, f.jobbers)
	runFleet(fleetCtx, &wg, f.pollers, func(ctx context.Context, id int) { poller(ctx, client, rec, id) })
	runFleet(fleetCtx, &wg, f.sse, func(ctx context.Context, id int) { sseSubscriber(ctx, client, rec, id, soakJobs) })
	runFleet(fleetCtx, &wg, f.sessioners, func(ctx context.Context, id int) { sessioner(ctx, client, rec, ds.ID) })
	runFleet(fleetCtx, &wg, f.uploaders, func(ctx context.Context, id int) { uploader(ctx, client, rec, id) })
	runFleet(fleetCtx, &wg, f.jobbers, func(ctx context.Context, id int) { jobber(ctx, client, rec, id, ds.ID) })
	wg.Wait()
	cancelFleet()

	// Drain: mass-DELETE every running job, then verify none leaked.
	deleted, leakedJobs := drainJobs(ctx, client)
	fmt.Printf("loadcheck: drained — %d jobs cancelled, %d still running\n", deleted, leakedJobs)

	// Close the pooled keep-alive connections: Go's HTTP server runs
	// one goroutine per open connection, and the leak SLO is about the
	// server's own plumbing, not the harness's idle sockets.
	transport.CloseIdleConnections()

	// Goroutine settle: the server must wind back to the baseline.
	finalRT, settled := settleRuntime(ctx, client, baseline.Goroutines+goroutineSlack)
	fmt.Printf("loadcheck: runtime settled=%v — %d goroutines (baseline %d), %d MiB heap\n",
		settled, finalRT.Goroutines, baseline.Goroutines, finalRT.HeapAllocBytes>>20)

	metrics, err := client.Metrics(ctx)
	if err != nil {
		fatalf("final metrics read: %v", err)
	}
	stopServer(proc)

	// The sharded kill-and-restart drill gets its own server pair (and
	// its own directories): a SIGKILL mid-sweep must resume, not
	// interrupt, on the next boot.
	if *shardSNPs > 0 {
		runShardScenario(binPath, *apiKey, *shardSNPs)
	}

	// The rate-limit scenario gets its own server too: mixing a
	// throttled profile into the soak would turn every fleet's error
	// count into noise.
	var rateDoc *RateLimitBench
	if *rateRPS > 0 {
		rd := runRateScenario(binPath, *apiKey, *rateRPS, *rateBurst)
		rateDoc = &rd
	}

	doc := buildServeBench(*clients, *duration, *relax, rec, metrics, sampler, baseline, finalRT, leakedJobs, rateDoc)
	fmt.Printf("loadcheck: latency SLO bounds scaled ×%.1f (relax %.1f × cpu scale %.1f on %d CPUs)\n",
		doc.Profile.Relax*doc.Profile.CPUScale, doc.Profile.Relax, doc.Profile.CPUScale, runtime.NumCPU())
	benchPath := filepath.Join(*out, "BENCH_serve.json")
	writeJSON(benchPath, doc)
	fmt.Printf("loadcheck: wrote %s\n", benchPath)

	ok := true
	for _, c := range doc.SLO.Checks {
		verdict := "PASS"
		if !c.Pass {
			verdict, ok = "FAIL", false
		}
		fmt.Printf("loadcheck: SLO %-28s %s  (%.2f %s, limit %.2f)\n", c.Name, verdict, c.Actual, c.Unit, c.Limit)
	}
	if !ok {
		fatalf("SLO violations (see above)")
	}
	fmt.Println("loadcheck: OK — all SLOs met")
}

// goroutineSlack is the tolerated goroutine growth between the
// post-warmup baseline and the post-drain settle. It absorbs runtime
// internals (GC workers, netpoller threads) that come and go; a real
// leak — one SSE handler or job pump per request — blows past it
// immediately at load-test request counts.
const goroutineSlack = 16

// smallConfig is a GA configuration that finishes in well under a
// second on the 51-SNP preset — the jobber fleet's workload.
func smallConfig(seed uint64) repro.GAConfig {
	return repro.GAConfig{
		MinSize: 2, MaxSize: 3, PopulationSize: 24,
		PairsPerGeneration: 8, StagnationLimit: 12,
		ImmigrantStagnation: 5, MaxGenerations: 200, Seed: seed,
	}
}

// soakConfig never converges on its own: stagnation and generation
// caps are effectively infinite, so the job streams generations until
// the mass-DELETE stops it.
func soakConfig(seed uint64) repro.GAConfig {
	return repro.GAConfig{
		MinSize: 2, MaxSize: 3, PopulationSize: 24,
		PairsPerGeneration: 8, StagnationLimit: 1 << 30,
		ImmigrantStagnation: 5, MaxGenerations: 1 << 30, Seed: seed,
	}
}

// drainJobs pages through the full job listing, cancels every running
// job, and reports how many stayed "running" after a generous settle —
// the job-leak SLO input.
func drainJobs(ctx context.Context, client *serve.Client) (deleted, leaked int) {
	cursor := ""
	for {
		list, err := client.Jobs(ctx, serve.JobsQuery{Cursor: cursor, Limit: 100})
		if err != nil {
			fatalf("drain listing: %v", err)
		}
		for _, ji := range list.Jobs {
			if ji.State != serve.JobRunning {
				continue
			}
			if _, err := client.StopJob(ctx, ji.ID); err == nil {
				deleted++
			}
		}
		cursor = list.NextCursor
		if cursor == "" {
			break
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		leaked = countRunning(ctx, client)
		if leaked == 0 || time.Now().After(deadline) {
			return deleted, leaked
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// countRunning counts jobs the listing still reports as running.
func countRunning(ctx context.Context, client *serve.Client) int {
	n, cursor := 0, ""
	for {
		list, err := client.Jobs(ctx, serve.JobsQuery{Cursor: cursor, Limit: 100})
		if err != nil {
			fatalf("leak listing: %v", err)
		}
		for _, ji := range list.Jobs {
			if ji.State == serve.JobRunning {
				n++
			}
		}
		cursor = list.NextCursor
		if cursor == "" {
			return n
		}
	}
}

// settleRuntime polls GET /debug/runtime until the goroutine count
// drops to the limit or the deadline expires; the last reading and the
// verdict feed the leak SLO.
func settleRuntime(ctx context.Context, client *serve.Client, limit int) (serve.RuntimeInfo, bool) {
	deadline := time.Now().Add(20 * time.Second)
	for {
		ri, err := client.Runtime(ctx)
		if err != nil {
			fatalf("runtime read: %v", err)
		}
		if ri.Goroutines <= limit {
			return ri, true
		}
		if time.Now().After(deadline) {
			return ri, false
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// ensureBinary returns the path of a runnable ldserve, building one
// into a temp dir when the caller did not supply -ldserve.
func ensureBinary(path string) string {
	if path != "" {
		abs, err := filepath.Abs(path)
		if err != nil {
			fatalf("%v", err)
		}
		if _, err := os.Stat(abs); err != nil {
			fatalf("ldserve binary: %v", err)
		}
		return abs
	}
	out := filepath.Join(tempDir("loadcheck-bin-*"), "ldserve")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/ldserve")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		fatalf("build ldserve: %v", err)
	}
	return out
}

// freeAddr reserves a loopback port for the server.
func freeAddr() string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("reserve port: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startServer boots ldserve with the loadcheck profile — durable
// store, auth, metrics, /debug/runtime, a short session TTL with a
// fast janitor (the sessioner fleet relies on TTL eviction), quiet
// logging — and waits for the listener.
func startServer(bin, addr, dataDir, apiKey string, extra ...string) *exec.Cmd {
	args := []string{
		"-addr", addr,
		"-data-dir", dataDir,
		"-api-key", apiKey,
		"-metrics",
		"-debug-runtime",
		"-quiet",
		"-session-ttl", "5s",
		"-sweep", "1s",
		"-max-jobs", "8",
		"-drain", "2s",
		"-shutdown-timeout", "10s",
	}
	cmd := exec.Command(bin, append(args, extra...)...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := startOwned(cmd); err != nil {
		fatalf("start %s: %v", bin, err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
			return cmd
		}
		time.Sleep(50 * time.Millisecond)
	}
	fatalf("server on %s never came up", addr)
	return nil
}

// stopServer sends SIGTERM (the graceful drain path) and waits.
func stopServer(cmd *exec.Cmd) {
	if cmd == nil || cmd.Process == nil {
		return
	}
	cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		<-done
		fatalf("server ignored SIGTERM for 60s")
	}
	cmd.Process = nil
}

// killServer stops cmd at once with SIGKILL — no drain, no final
// persist — and reaps it. Like stopServer, it is a no-op on a stopped
// server.
func killServer(cmd *exec.Cmd) {
	if cmd.Process == nil {
		return
	}
	cmd.Process.Kill()
	cmd.Wait()
	cmd.Process = nil
}

// owned is what the run has started and must not leave behind: the
// ldserve processes (stopped ones are skipped on release) and every
// temp dir. os.Exit skips deferred calls, so fatalf releases it
// explicitly; main defers the same release for a passing run.
var owned struct {
	sync.Mutex
	procs []*exec.Cmd
	dirs  []string
}

// tempDir makes a temp dir the run owns until releaseOwned.
func tempDir(pattern string) string {
	dir, err := os.MkdirTemp("", pattern)
	if err != nil {
		fatalf("temp dir: %v", err)
	}
	owned.Lock()
	owned.dirs = append(owned.dirs, dir)
	owned.Unlock()
	return dir
}

// startOwned starts cmd and owns it until releaseOwned.
func startOwned(cmd *exec.Cmd) error {
	if err := cmd.Start(); err != nil {
		return err
	}
	owned.Lock()
	owned.procs = append(owned.procs, cmd)
	owned.Unlock()
	return nil
}

// releaseOwned kills every owned process still running and removes
// every owned temp dir. A second call finds nothing left to release.
func releaseOwned() {
	owned.Lock()
	procs, dirs := owned.procs, owned.dirs
	owned.procs, owned.dirs = nil, nil
	owned.Unlock()
	for _, cmd := range procs {
		killServer(cmd)
	}
	for _, dir := range dirs {
		os.RemoveAll(dir)
	}
}

// writeJSON writes one BENCH document, indented, with a trailing
// newline so the files diff cleanly in version control.
func writeJSON(path string, doc any) {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatalf("marshal %s: %v", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fatalf("write %s: %v", path, err)
	}
}

// fatalf reports a failure, releases everything the run owns, and
// exits nonzero.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadcheck: FAIL: "+format+"\n", args...)
	releaseOwned()
	os.Exit(1)
}
