package main

import (
	"runtime"
	"time"

	"repro/serve"
)

// ServeBench is the BENCH_serve.json document: one load-test snapshot
// of the serving layer. Committed over time, these snapshots are the
// perf trajectory — the fixed histogram bucket bounds and the fixed
// class names make any two of them directly diffable.
type ServeBench struct {
	// Kind tags the document ("serve"), so tooling can tell it apart
	// from other BENCH files without relying on file names.
	Kind string `json:"kind"`
	// GeneratedAt is the snapshot time (UTC).
	GeneratedAt time.Time `json:"generated_at"`
	// GoVersion and NumCPU identify the toolchain and hardware class;
	// compare snapshots only like for like — a Go upgrade shifts the
	// numbers on its own.
	GoVersion string `json:"go_version"`
	// NumCPU is documented with GoVersion above.
	NumCPU int `json:"num_cpu"`
	// Profile is the load shape the snapshot was taken under.
	Profile Profile `json:"profile"`
	// Client holds the client-observed latency classes (exact
	// percentiles over every sample).
	Client map[string]ClassStats `json:"client"`
	// Server is the server's own final /metrics document — request
	// totals, status breakdown, the fixed-bound latency histogram, and
	// the evaluation-engine counters.
	Server serve.MetricsInfo `json:"server"`
	// Runtime summarizes the goroutine/heap series sampled from
	// GET /debug/runtime through the soak.
	Runtime RuntimeSeries `json:"runtime"`
	// RateLimit records the rate-limit scenario (429 + Retry-After
	// under load against a throttled profile); nil when skipped.
	RateLimit *RateLimitBench `json:"rate_limit,omitempty"`
	// SLO is the verdict block; Pass false means the run failed.
	SLO SLOReport `json:"slo"`
}

// Profile records the knobs the snapshot was taken with.
type Profile struct {
	// Clients is the total concurrent client count.
	Clients int `json:"clients"`
	// DurationNS is the soak window length.
	DurationNS int64 `json:"duration_ns"`
	// Relax is the caller's -relax latency-SLO multiplier.
	Relax float64 `json:"relax"`
	// CPUScale is the automatic hardware headroom multiplied into the
	// latency bounds: the unrelaxed bounds are calibrated for a host
	// with at least 8 CPUs, and a smaller box — where the harness's
	// hundreds of client goroutines and the server split the same
	// cores — gets 8/NumCPU proportional slack. 1 on big hosts.
	CPUScale float64 `json:"cpu_scale"`
}

// RuntimeSeries condenses the sampled runtime counters: baseline
// (post-warmup), peak (mid-soak) and final (post-drain, settled).
type RuntimeSeries struct {
	// BaselineGoroutines is the goroutine count after warmup, before
	// load — the number the server must return to.
	BaselineGoroutines int `json:"baseline_goroutines"`
	// PeakGoroutines is the highest count sampled during the soak.
	PeakGoroutines int `json:"peak_goroutines"`
	// FinalGoroutines is the settled count after the drain.
	FinalGoroutines int `json:"final_goroutines"`
	// BaselineHeapBytes, PeakHeapBytes and FinalHeapBytes are the
	// matching live-heap readings.
	BaselineHeapBytes uint64 `json:"baseline_heap_bytes"`
	// PeakHeapBytes is documented with BaselineHeapBytes above.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// FinalHeapBytes is documented with BaselineHeapBytes above.
	FinalHeapBytes uint64 `json:"final_heap_bytes"`
	// Samples is the number of /debug/runtime readings taken.
	Samples int `json:"samples"`
}

// SLOReport is the assertion block of BENCH_serve.json.
type SLOReport struct {
	// Pass is the conjunction of every check.
	Pass bool `json:"pass"`
	// Checks lists each objective with its limit and observed value.
	Checks []SLOCheck `json:"checks"`
}

// SLOCheck is one service-level objective verdict.
type SLOCheck struct {
	// Name identifies the objective (stable strings).
	Name string `json:"name"`
	// Limit is the bound the run was judged against (after -relax and
	// CPU scaling, for the latency checks).
	Limit float64 `json:"limit"`
	// Actual is the observed value.
	Actual float64 `json:"actual"`
	// Unit names the unit of Limit and Actual ("ms", "count").
	Unit string `json:"unit"`
	// Pass reports whether Actual met Limit.
	Pass bool `json:"pass"`
}

// Unrelaxed p99 bounds per latency class, calibrated for a host with
// at least 8 CPUs under the default 200-client profile (smaller hosts
// get proportional slack; see Profile.CPUScale). The point is catching
// regressions — a lock held across an fsync, a leaked stream stalling
// the pump — not absolute speed; the BENCH files carry the real
// distributions. Mutations get more headroom than reads: every
// mutation is an fsync'd store write, and a job start spins up a run.
// The SSE bound is time-to-first-event on a stream whose first entry
// is the late-subscriber seed, served on subscribe.
const (
	readP99Limit = 500 * time.Millisecond
	mutP99Limit  = 2 * time.Second
	sseP99Limit  = 2 * time.Second
)

// buildServeBench assembles the document and evaluates every SLO.
func buildServeBench(clients int, duration time.Duration, relax float64,
	rec *recorder, metrics serve.MetricsInfo, smp *sampler,
	baseline, final serve.RuntimeInfo, leakedJobs int, rate *RateLimitBench) ServeBench {

	classes := rec.snapshot()
	peakG, peakHeap, samples := smp.peaks()
	cpuScale := 1.0
	if n := runtime.NumCPU(); n < 8 {
		cpuScale = 8.0 / float64(n)
	}
	doc := ServeBench{
		Kind:        "serve",
		GeneratedAt: time.Now().UTC(),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Profile:     Profile{Clients: clients, DurationNS: duration.Nanoseconds(), Relax: relax, CPUScale: cpuScale},
		Client:      classes,
		Server:      metrics,
		Runtime: RuntimeSeries{
			BaselineGoroutines: baseline.Goroutines,
			PeakGoroutines:     peakG,
			FinalGoroutines:    final.Goroutines,
			BaselineHeapBytes:  baseline.HeapAllocBytes,
			PeakHeapBytes:      peakHeap,
			FinalHeapBytes:     final.HeapAllocBytes,
			Samples:            samples,
		},
	}

	check := func(name string, limit, actual float64, unit string) {
		doc.SLO.Checks = append(doc.SLO.Checks, SLOCheck{
			Name: name, Limit: limit, Actual: actual, Unit: unit, Pass: actual <= limit,
		})
	}
	scale := relax * cpuScale
	check("read_p99", scale*ms(readP99Limit), classes[classRead].P99MS, "ms")
	check("mutate_p99", scale*ms(mutP99Limit), classes[classMut].P99MS, "ms")
	check("sse_first_event_p99", scale*ms(sseP99Limit), classes[classSSE].P99MS, "ms")
	var errs int64
	for _, c := range classes {
		errs += c.Errors
	}
	check("client_errors", 0, float64(errs), "count")
	check("jobs_running_after_drain", 0, float64(leakedJobs), "count")
	check("goroutine_growth_after_drain", goroutineSlack,
		float64(final.Goroutines-baseline.Goroutines), "count")
	check("dedup_violations", 0, float64(rec.dedupViolations.Load()), "count")
	if rate != nil {
		doc.RateLimit = rate
		// Orientation: check() passes on actual <= limit, so "the limit
		// engaged" is phrased as zero scenarios without a 429.
		notLimited := 0.0
		if rate.Limited == 0 {
			notLimited = 1
		}
		check("rate_limit_never_engaged", 0, notLimited, "count")
		check("rate_limit_retry_after_missing", 0, float64(rate.RetryAfterMissing), "count")
		notRecovered := 0.0
		if !rate.RecoveredAfterWait {
			notRecovered = 1
		}
		check("rate_limit_not_recovered", 0, notRecovered, "count")
	}

	doc.SLO.Pass = true
	for _, c := range doc.SLO.Checks {
		doc.SLO.Pass = doc.SLO.Pass && c.Pass
	}
	return doc
}
