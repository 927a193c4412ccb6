// Command ldserve runs the versioned HTTP service over the repro
// Session/Job API: dataset upload, background GA jobs with streamed
// (SSE) progress, listings with pagination, and evaluation-engine
// statistics. Many users share one process — and one memoizing
// fitness cache per dataset+backend.
//
// With -data-dir the server is durable: every dataset, session and
// job record is persisted to disk (one fsync'd JSON document each),
// so a restarted server serves its datasets and finished job results
// again and marks jobs that were running at crash time as
// "interrupted". -api-key (repeatable) turns on API-key auth with
// per-key scopes, -rate/-burst a per-key token-bucket rate limit;
// requests are logged through log/slog and GET /metrics exposes
// request/latency/evaluation counters.
//
// SIGINT/SIGTERM drain gracefully: every running job is cancelled
// through its context (winding down within one generation), new
// mutating requests get 503, and reads stay up for -drain so clients
// can fetch the partial results of their cancelled jobs before the
// listener closes (the count of cancelled jobs is logged). The final
// listener close waits at most -shutdown-timeout. A second signal
// terminates immediately.
//
// Usage:
//
//	ldserve -addr :8080
//	ldserve -addr :8080 -data-dir /var/lib/ldserve \
//	        -api-key s3cret -api-key readonly:read -rate 20 -burst 40
//	ldserve -addr 127.0.0.1:9000 -max-jobs 2 -session-ttl 10m \
//	        -drain 30s -shutdown-timeout 10s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		drain       = flag.Duration("drain", 15*time.Second, "how long reads stay available after SIGINT before the listener closes")
		shutTimeout = flag.Duration("shutdown-timeout", 5*time.Second, "how long the final listener close may take once the drain window ends")
		sessionTTL  = flag.Duration("session-ttl", 30*time.Minute, "evict sessions idle this long (with no running job)")
		datasetTTL  = flag.Duration("dataset-ttl", time.Hour, "evict datasets unreferenced this long (releases their fitness caches)")
		maxJobs     = flag.Int("max-jobs", 4, "max concurrently running jobs per session (excess gets 429)")
		sweep       = flag.Duration("sweep", 30*time.Second, "idle-eviction janitor period")
		dataDir     = flag.String("data-dir", "", "persist dataset/session/job records here (restored on restart); empty = in-memory only")
		spillDir    = flag.String("spill-dir", "", "spill sharded sessions' shards to write-once files here (one subdirectory per dataset); empty = shards stay in memory")
		rate        = flag.Float64("rate", 0, "per-key (or per-host) rate limit in requests/second; 0 = unlimited")
		burst       = flag.Int("burst", 25, "rate-limit burst size (with -rate); sized so one client's session-setup burst (upload, session, job, stream, first polls) fits without draining the bucket")
		metrics     = flag.Bool("metrics", true, "serve request/latency/evaluation counters on GET /metrics")
		debugRT     = flag.Bool("debug-runtime", false, "serve goroutine/heap/GC counters on GET /debug/runtime (required by tools/loadcheck)")
		quiet       = flag.Bool("quiet", false, "disable per-request logging")
	)
	var keys []serve.APIKey
	flag.Func("api-key", "API key as key[:scope,...] (scopes read, write; none = full access); repeatable", func(v string) error {
		k, err := parseAPIKey(v, len(keys)+1)
		if err != nil {
			return err
		}
		keys = append(keys, k)
		return nil
	})
	flag.Parse()

	reg := serve.NewRegistry(serve.RegistryConfig{
		SessionTTL:        *sessionTTL,
		DatasetTTL:        *datasetTTL,
		MaxJobsPerSession: *maxJobs,
		SweepInterval:     *sweep,
		SpillDir:          *spillDir,
	})

	var opts []serve.ServerOption
	if *dataDir != "" {
		st, err := serve.NewFSStore(*dataDir)
		if err != nil {
			fatalf("open data dir: %v", err)
		}
		opts = append(opts, serve.WithStore(st))
	}
	if len(keys) > 0 {
		opts = append(opts, serve.WithAuth(keys...))
	}
	if *rate > 0 {
		opts = append(opts, serve.WithRateLimit(*rate, *burst))
	}
	if !*quiet {
		opts = append(opts, serve.WithLogger(slog.New(slog.NewTextHandler(os.Stderr, nil))))
	}
	if *metrics {
		opts = append(opts, serve.WithMetrics())
	}
	if *debugRT {
		opts = append(opts, serve.WithRuntimeStats())
	}
	srv, err := serve.NewServer(reg, opts...)
	if err != nil {
		reg.Close()
		fatalf("%v", err)
	}
	hs := &http.Server{Addr: *addr, Handler: srv}

	// First SIGINT/SIGTERM starts the drain; after it the default
	// handling is restored, so a second signal kills the process.
	ctx, stop := cli.SignalContext()
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	durability := "in-memory records"
	if *dataDir != "" {
		durability = "data dir " + *dataDir
	}
	log.Printf("ldserve: serving /%s API on %s (%s, %d keys, max %d jobs/session, session ttl %s, dataset ttl %s)",
		serve.APIVersion, *addr, durability, len(keys), *maxJobs, *sessionTTL, *datasetTTL)

	select {
	case err := <-errc:
		reg.Close()
		fatalf("listen: %v", err)
	case <-ctx.Done():
	}

	// Drain: cancel every running job via its context (partial
	// results stay fetchable — and, with -data-dir, persisted), reject
	// new work, keep serving reads. The read window only matters when
	// jobs were actually cancelled; an idle server shuts down
	// immediately.
	canceled := reg.RunningJobs()
	reg.BeginDrain()
	if canceled > 0 {
		log.Printf("ldserve: draining — %d running jobs cancelled, reads stay up for %s (Ctrl-C again to exit now)", canceled, *drain)
		deadline := time.Now().Add(*drain)
		for reg.RunningJobs() > 0 && time.Now().Before(deadline) {
			time.Sleep(50 * time.Millisecond)
		}
		if rest := time.Until(deadline); rest > 0 {
			time.Sleep(rest) // clients fetch their partial results here
		}
	} else {
		log.Printf("ldserve: no running jobs — shutting down")
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), *shutTimeout)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("ldserve: shutdown: %v", err)
	}
	reg.Close()
	log.Printf("ldserve: stopped")
}

// parseAPIKey parses one -api-key value: key[:scope,...].
func parseAPIKey(v string, n int) (serve.APIKey, error) {
	k := serve.APIKey{Name: fmt.Sprintf("key-%d", n)}
	k.Key, v, _ = strings.Cut(v, ":")
	if k.Key == "" {
		return serve.APIKey{}, errors.New("empty API key")
	}
	if v != "" {
		k.Scopes = strings.Split(v, ",")
	}
	return k, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ldserve: "+format+"\n", args...)
	os.Exit(1)
}
