// Package testleak is the shared goroutine-leak detector for test
// teardowns. It replaces the ad-hoc "count goroutines before and
// after" checks that used to live in individual test files with one
// implementation that diffs actual stacks, so a leak report names the
// offending goroutine instead of just reporting a count mismatch —
// and so unrelated runtime, testing or net/http plumbing goroutines
// can never fail a test.
//
// Usage, first thing in a test (or test helper):
//
//	testleak.Check(t)
//
// Check snapshots the goroutines alive now and registers a t.Cleanup
// that runs after every other cleanup of the test: it waits for the
// goroutine set to settle back to the snapshot and fails the test with
// the full stacks of whatever refused to exit.
//
// Filtering: only goroutines with at least one frame inside this
// module (import path prefix "repro") are considered — a leak we could
// have caused is always such a goroutine (an engine worker, an island
// loop, a job pump, an SSE handler all carry repro frames), while
// false positives (testing harness, finalizer, net/http transport
// keep-alives) never do. Goroutines whose normalized stack already
// appeared in the snapshot are allowed to persist, so long-lived
// fixtures shared across tests do not trip the check.
package testleak

import (
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"time"
)

// modulePrefix marks frames belonging to this module; only goroutines
// carrying such a frame can be reported as leaks.
const modulePrefix = "repro"

// settleTimeout is how long a teardown waits for goroutines to wind
// down before declaring a leak. Winding down is normally instant; the
// generous budget absorbs a loaded CI machine.
const settleTimeout = 10 * time.Second

// active records the tests with a Check registered, so a second Check
// in the same test is a no-op.
var active = struct {
	sync.Mutex
	tests map[TB]bool
}{tests: make(map[TB]bool)}

// TB is the subset of testing.TB the checker needs; taking the
// interface keeps the package free of a testing import cycle and
// usable from helpers.
type TB interface {
	Helper()
	Cleanup(func())
	Errorf(format string, args ...any)
}

// Check snapshots the current goroutines and registers a cleanup that
// fails t if, after all other cleanups have run, goroutines with
// frames in this module exist that were not part of the snapshot. Call
// it before constructing whatever the test must tear down — t.Cleanup
// functions run in reverse registration order, so the leak check runs
// last.
//
// Only the first Check of a test counts; a later one (a helper that
// calls Check, used twice in one test) is a no-op. The later check's
// cleanup would run before the cleanups registered between the two
// calls, so it would judge fixtures that are not torn down yet, while
// the first check's snapshot predates every fixture and its cleanup
// still runs after all of them.
func Check(t TB) {
	t.Helper()
	active.Lock()
	if active.tests[t] {
		active.Unlock()
		return
	}
	active.tests[t] = true
	active.Unlock()
	before := snapshot()
	t.Cleanup(func() {
		t.Helper()
		defer func() {
			active.Lock()
			delete(active.tests, t)
			active.Unlock()
		}()
		leaked := settle(before)
		if len(leaked) == 0 {
			return
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%d leaked goroutine(s):\n", len(leaked))
		for _, g := range leaked {
			b.WriteString("\n")
			b.WriteString(g)
			b.WriteString("\n")
		}
		t.Errorf("testleak: %s", b.String())
	})
}

// settle polls until no new module goroutines remain or the timeout
// expires, returning the leaked stacks (nil when clean).
func settle(before map[string]int) []string {
	deadline := time.Now().Add(settleTimeout)
	for {
		leaked := diff(before)
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// snapshot returns the multiset of normalized stacks of the module's
// current goroutines.
func snapshot() map[string]int {
	counts := make(map[string]int)
	for _, g := range moduleGoroutines() {
		counts[normalize(g)]++
	}
	return counts
}

// diff returns the stacks of module goroutines now alive beyond their
// snapshot multiplicity.
func diff(before map[string]int) []string {
	seen := make(map[string]int, len(before))
	var leaked []string
	for _, g := range moduleGoroutines() {
		key := normalize(g)
		seen[key]++
		if seen[key] > before[key] {
			leaked = append(leaked, g)
		}
	}
	return leaked
}

// moduleGoroutines dumps all goroutine stacks and keeps the ones with
// a frame inside this module, excluding the calling goroutine (it is
// the test itself).
func moduleGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for i, g := range strings.Split(string(buf), "\n\n") {
		if i == 0 {
			continue // the first stanza is this goroutine
		}
		if inModule(g) {
			out = append(out, g)
		}
	}
	return out
}

// inModule reports whether any function frame of the stack belongs to
// this module. Function lines look like "repro/internal/engine.(*Engine).worker(...)"
// or "repro.(*Session).Run(...)"; file lines are indented with a tab
// and skipped.
func inModule(stack string) bool {
	for _, line := range strings.Split(stack, "\n") {
		if strings.HasPrefix(line, "\t") || strings.HasPrefix(line, "goroutine ") {
			continue
		}
		if strings.HasPrefix(line, "created by ") {
			line = strings.TrimPrefix(line, "created by ")
		}
		if strings.HasPrefix(line, modulePrefix+".") || strings.HasPrefix(line, modulePrefix+"/") {
			return true
		}
	}
	return false
}

// addrOrID strips the varying parts of a stack: goroutine ids, hex
// addresses and argument values, so identical code paths normalize to
// identical keys across dumps.
var addrOrID = regexp.MustCompile(`goroutine \d+|0x[0-9a-f]+|\(\d+\)|\+0x[0-9a-f]+$`)

// normalize canonicalizes a stack stanza for multiset comparison.
func normalize(stack string) string {
	var lines []string
	for _, line := range strings.Split(stack, "\n") {
		if strings.HasPrefix(line, "goroutine ") {
			continue // header: id and scheduler state vary
		}
		lines = append(lines, addrOrID.ReplaceAllString(line, ""))
	}
	return strings.Join(lines, "\n")
}
