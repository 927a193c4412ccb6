// Command perfbench is the repository's benchmark. It drives three
// workloads through the real stack, checks their outputs, and prints
// end-to-end metrics (with --trace 0) or per-layer metrics (with
// --trace 1) by name and unit; the last line of its output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload ga-249 --seed 1 --seconds 20 --trace 0
//
// Workloads (inputs are generated from --seed):
//
//   - ga-249: synchronous GA runs with the paper's §5.2.1 GAConfig,
//     capped at a few generations, on 249-SNP preset-shape datasets,
//     T1, native engine with one worker per CPU, each run on a fresh
//     session.
//   - sweep-wide: shard.RunSweep with k=2 windows and stride 1 over a
//     30,000-SNP study of 176 individuals with 1% missing genotypes,
//     on repro.NewShardedEngine, one cold engine per pass.
//   - serve-51: a real ldserve child process and a closed loop of one
//     client per CPU, each on its own session, submitting small GA jobs
//     (12 generations) on a 51-SNP-shape dataset, streaming their
//     progress, reading the job and a jobs page, and every eighth cycle
//     uploading a fresh dataset.
//
// Every workload reports the same end-to-end vocabulary. A job is one
// unit of work a user submits and waits for: a GA run (started with
// Session.Start and followed on its Progress channel), a sweep pass
// (followed through RunSweep's per-shard observer), or a served GA job
// (submitted over HTTP and followed on its SSE stream). A read is the
// status a user fetches once a job has ended: Job.Report with
// Session.Report, Engine.Report, or GET of the job with one jobs page. An upload registers a dataset from
// its table text: parse, pack, QC, fingerprint and open a session, in
// process or through POST /v1/datasets and POST /v1/sessions.
//
// The traced run (--trace 1) assembles the in-process stacks from the
// layers' public constructors with timing decorators at each boundary
// (see trace.go), checks that its results are bit-identical to the
// untraced stack's, that the program's exact counts repeat for a
// repeated seed, and prints how the layers reconcile with the totals.
// Spans are kept in memory and written to <out>/spans at the end; a
// full report goes to <out>/reports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric names one reported figure and its unit.
type metric struct {
	name, unit string
}

// endToEnd are the metrics a user sees, reported with tracing off on
// every workload. They match BENCHMARK.json.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"evals_per_s", "1/s"},
	{"live_heap_mb", "MB"},
	{"job_p50_ms", "ms"},
	{"job_tail_ms", "ms"},
	{"first_event_p50_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"read_tail_ms", "ms"},
	{"upload_p50_ms", "ms"},
	{"jobs_per_s", "1/s"},
}

// perLayer are the metrics of single layers, reported by the traced
// run on every workload; a layer a workload does not reach reports 0.
var perLayer = []metric{
	{"genotype.pack_s", "s"},
	{"genotype.qc_s", "s"},
	{"ehdiall.calls", "count"},
	{"ehdiall.busy_s", "s"},
	{"ehdiall.ns_per_call", "ns"},
	{"ehdiall.iters_per_call", "count"},
	{"ehdiall.nonconverged", "count"},
	{"ehdiall.share", "ratio"},
	{"clump.calls", "count"},
	{"clump.busy_s", "s"},
	{"clump.ns_per_call", "ns"},
	{"fitness.calls", "count"},
	{"fitness.busy_s", "s"},
	{"fitness.ns_per_eval", "ns"},
	{"fitness.gather_s", "s"},
	{"fitness.empty_group", "count"},
	{"fitness.unattributed_s", "s"},
	{"shard.source_calls", "count"},
	{"shard.source_s", "s"},
	{"shard.calls_per_eval", "count"},
	{"engine.requests", "count"},
	{"engine.computed", "count"},
	{"engine.hit_rate", "ratio"},
	{"engine.coalesced", "count"},
	{"engine.cache_entries", "count"},
	{"engine.batches", "count"},
	{"engine.batch_s", "s"},
	{"engine.self_s", "s"},
	{"engine.worker_util", "ratio"},
	{"core.generations", "count"},
	{"core.run_s", "s"},
	{"core.self_s", "s"},
	{"core.batch_size_mean", "count"},
	{"serve.upload_ms", "ms"},
	{"serve.session_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.first_event_ms", "ms"},
	{"serve.stream_ms", "ms"},
	{"serve.frames_per_job", "count"},
	{"serve.read_ms", "ms"},
	{"serve.list_ms", "ms"},
	{"serve.server_p50_ms", "ms"},
	{"serve.engine_computed", "count"},
	{"trace.overhead", "ratio"},
}

// zeroLayers reports 0 for every per-layer metric; a workload then
// fills in the layers it reaches.
func zeroLayers(m map[string]float64) {
	for _, pm := range perLayer {
		m[pm.name] = 0
	}
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	ldserve  string
	out      string
	rev      string
	nproc    int
}

// report is what a workload hands back: the outcome of its checks, its
// metrics, and lines worth printing next to them.
type report struct {
	attempted, failed int
	checksFailed      []string
	metrics           map[string]float64
	notes             map[string]string // printed next to a metric
	lines             []string          // printed before the metrics
}

func newReport() *report {
	return &report{metrics: make(map[string]float64), notes: make(map[string]string)}
}

// check counts one attempted operation and records a failure message.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.checksFailed) < 20 {
			r.checksFailed = append(r.checksFailed, fmt.Sprintf(format, args...))
		}
	}
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*report, error){
	"ga-249":     runGA,
	"sweep-wide": runSweep,
	"serve-51":   runServe,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: ga-249, sweep-wide or serve-51")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; every input is generated from it")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long the measured phase lasts")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced stack and reports per-layer metrics")
	flag.StringVar(&cfg.ldserve, "ldserve", "", "ldserve binary (serve-51)")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for spans and reports")
	flag.StringVar(&cfg.rev, "rev", "none", "git revision of the measured tree")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.nproc = runtime.NumCPU()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want ga-249, sweep-wide or serve-51)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	prov := map[string]any{
		"workload":     cfg.workload,
		"seed":         cfg.seed,
		"seconds":      cfg.seconds,
		"trace":        cfg.trace,
		"nproc":        cfg.nproc,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"git_revision": cfg.rev,
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d %s rev=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.nproc, runtime.GOMAXPROCS(0), runtime.Version(), cfg.rev)

	rep, err := wl(cfg)
	if err != nil {
		return err
	}

	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	out := make(map[string]any, len(want))
	for _, m := range want {
		v, ok := rep.metrics[m.name]
		if !ok {
			return fmt.Errorf("workload %s did not report %s", cfg.workload, m.name)
		}
		note := ""
		if n := rep.notes[m.name]; n != "" {
			note = "  (" + n + ")"
		}
		fmt.Printf("  %-24s %14.6g %s%s\n", m.name, v, m.unit, note)
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	errRate := ratio(float64(rep.failed), float64(rep.attempted))
	fmt.Printf("  %-24s %14.6g (%d failed of %d attempted)\n", "error_rate", errRate, rep.failed, rep.attempted)
	for _, c := range rep.checksFailed {
		fmt.Println("  FAILED:", c)
	}
	correct := rep.failed == 0 && rep.attempted > 0

	full := map[string]any{"provenance": prov, "correct": correct, "attempted": rep.attempted,
		"failed": rep.failed, "error_rate": errRate, "failures": rep.checksFailed,
		"metrics": rep.metrics, "notes": rep.notes, "lines": rep.lines}
	if err := writeJSON(filepath.Join(cfg.out, "reports", fmt.Sprintf("%s-seed%d-trace%v.json", cfg.workload, cfg.seed, cfg.trace)), full); err != nil {
		return err
	}

	last, err := json.Marshal(map[string]any{"correct": correct, "attempted": rep.attempted, "failed": rep.failed, "metrics": out})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// spanPath is where a traced run writes its spans.
func spanPath(cfg config) (string, error) {
	dir := filepath.Join(cfg.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)), nil
}

// deadline is when the measured phase of a run ends.
func deadline(cfg config) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
}

// mix derives a stream of seeds from the workload seed (SplitMix64).
func mix(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + (i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
