// Command ldvet runs the project's invariant analyzers — the static
// encoding of bug classes this repository has already paid for once.
// Like tools/lintdoc it is a zero-dependency driver: stdlib go/parser
// and go/types only, with imports resolved from source via
// importer.ForCompiler(fset, "source", nil).
//
// Usage:
//
//	go run ./tools/ldvet [flags] ./...
//
// Analyzers (all enabled by default, select with -enable):
//
//	mutexio  — no blocking I/O while a sync.Mutex/RWMutex is held
//	           (the PR 7 janitor-stall bug, generalized). I/O-ish
//	           means os.* calls, net/http calls, time.Sleep and
//	           Put/Get/Delete/List methods on *Store types, plus any
//	           package-local function that transitively reaches one.
//	wiretag  — every exported field of a wire struct (a struct with
//	           at least one json tag) carries an explicit json tag,
//	           and the computed tag set of the wire-surface packages
//	           matches tools/ldvet/wiretags.golden, so /v1 and stored
//	           record drift is a reviewable diff (-update rewrites).
//	ctxflow  — no context.Background()/context.TODO() outside cmd/,
//	           tools/, examples/ and _test.go files (nil-ctx guards
//	           `if ctx == nil { ctx = context.Background() }` are
//	           recognized and exempt), and a function that receives a
//	           ctx must not pass a fresh one to a context-taking
//	           callee (the PR 8 canceled-lane-hang class).
//	floatdet — inside the bit-identity kernel packages, forbid float
//	           accumulation under map iteration order, package-level
//	           math/rand (unseedable global source) and time.Now —
//	           the constructs that silently break the packed-vs-byte
//	           contract.
//	deadexport — no exported func, method, type, var or const under
//	           internal/ that no non-test file of any loaded package
//	           references outside its own declaration. Methods that
//	           implement an interface the loaded code knows of (or a
//	           stdlib-implicit one: String, Error, MarshalJSON, …),
//	           methods of types a public package re-exports by alias,
//	           and packages only _test.go files import are exempt.
//	           A cross-package pass: run it over ./... (perfbench/
//	           included), or an export whose users were not loaded is
//	           reported.
//
// A finding is suppressed by an annotation comment on its line, the
// line above it, or (for mutexio) the line taking the lock:
//
//	//ldvet:allow mutexio: the fsync'd Put is what makes dedup atomic
//
// The justification after the analyzer name is required by
// convention; the suite exists so every exception is a written-down
// decision. Exit status: 0 clean, 1 findings, 2 usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	cfg := defaultConfig()
	var enable string
	flag.StringVar(&enable, "enable", "mutexio,wiretag,ctxflow,floatdet,deadexport", "comma-separated analyzers to run")
	flag.BoolVar(&cfg.jsonOut, "json", false, "emit findings as a JSON array on stdout")
	flag.StringVar(&cfg.goldenPath, "wiretags", cfg.goldenPath, "path of the wire-tag golden manifest")
	flag.BoolVar(&cfg.update, "update", false, "rewrite the wire-tag golden manifest instead of diffing it")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ldvet [flags] PATTERN...  (a pattern is a directory or ./...)")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.enable = map[string]bool{}
	for _, name := range strings.Split(enable, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := analyzers[name]; !ok {
			fmt.Fprintf(os.Stderr, "ldvet: unknown analyzer %q (have mutexio, wiretag, ctxflow, floatdet, deadexport)\n", name)
			os.Exit(2)
		}
		cfg.enable[name] = true
	}

	dirs, err := expandPatterns(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "ldvet: %v\n", err)
		os.Exit(2)
	}
	units, err := loadUnits(dirs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ldvet: %v\n", err)
		os.Exit(2)
	}
	findings, err := runAnalyzers(units, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ldvet: %v\n", err)
		os.Exit(2)
	}
	if cfg.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "ldvet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s: %s: %s\n", f.Pos, f.Analyzer, f.Msg)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "ldvet: %d findings\n", len(findings))
		os.Exit(1)
	}
}

// runAnalyzers runs every enabled analyzer over every unit, then the
// cross-unit passes (the wiretag manifest check and deadexport), and
// returns the surviving
// (non-suppressed) findings sorted by position.
func runAnalyzers(units []*unit, cfg *config) ([]finding, error) {
	var out []finding
	for _, u := range units {
		for name, run := range analyzers {
			if !cfg.enable[name] {
				continue
			}
			out = append(out, run(u, cfg)...)
		}
	}
	if cfg.enable["wiretag"] {
		manifest, err := checkManifest(units, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, manifest...)
	}
	if cfg.enable["deadexport"] {
		dead, err := checkDeadExports(units)
		if err != nil {
			return nil, err
		}
		out = append(out, dead...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Msg < out[j].Msg
	})
	return out, nil
}
