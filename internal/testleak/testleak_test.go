package testleak

import (
	"strings"
	"testing"
	"time"
)

// recorder captures what the cleanup reported instead of failing the
// real test.
type recorder struct {
	cleanups []func()
	failed   bool
	message  string
}

func (r *recorder) Helper()          {}
func (r *recorder) Cleanup(f func()) { r.cleanups = append(r.cleanups, f) }

// runCleanups runs the registered cleanups in reverse registration
// order, like testing.T does.
func (r *recorder) runCleanups() {
	for i := len(r.cleanups) - 1; i >= 0; i-- {
		r.cleanups[i]()
	}
}
func (r *recorder) Errorf(format string, args ...any) {
	r.failed = true
	r.message = strings.TrimSpace(format)
}

// leak spins a goroutine with a module frame that blocks until
// released.
func leak() chan struct{} {
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		close(started)
		<-release
	}()
	<-started
	return release
}

// TestCheckPassesWhenClean: goroutines that exit before teardown do
// not trip the check.
func TestCheckPassesWhenClean(t *testing.T) {
	rec := &recorder{}
	Check(rec)
	release := leak()
	close(release) // the goroutine exits before cleanup runs
	rec.runCleanups()
	if rec.failed {
		t.Fatalf("clean teardown reported a leak: %s", rec.message)
	}
}

// TestCheckSettlesLateExit: a goroutine still winding down when the
// cleanup starts is given time to finish.
func TestCheckSettlesLateExit(t *testing.T) {
	rec := &recorder{}
	Check(rec)
	release := leak()
	go func() {
		time.Sleep(100 * time.Millisecond)
		close(release)
	}()
	rec.runCleanups()
	if rec.failed {
		t.Fatalf("late-exiting goroutine reported as leak: %s", rec.message)
	}
}

// TestCheckIgnoresPreexisting: a module goroutine alive before Check
// is part of the baseline, not a leak.
func TestCheckIgnoresPreexisting(t *testing.T) {
	release := leak()
	defer close(release)
	rec := &recorder{}
	Check(rec)
	rec.runCleanups()
	if rec.failed {
		t.Fatalf("pre-existing goroutine reported as leak: %s", rec.message)
	}
}

// TestNormalizeStripsVaryingParts: two dumps of the same code path
// compare equal despite differing ids and addresses.
func TestNormalizeStripsVaryingParts(t *testing.T) {
	a := "goroutine 7 [chan receive]:\nrepro/internal/testleak.leak.func1(0xc0001234)\n\t/x/testleak_test.go:30 +0x45"
	b := "goroutine 99 [chan receive, 2 minutes]:\nrepro/internal/testleak.leak.func1(0xc0999999)\n\t/x/testleak_test.go:30 +0x45"
	if normalize(a) != normalize(b) {
		t.Fatalf("normalize differs:\n%q\n%q", normalize(a), normalize(b))
	}
}

// TestInModuleFilter: only stacks with repro frames count.
func TestInModuleFilter(t *testing.T) {
	if !inModule("goroutine 5 [select]:\nrepro/serve.(*Server).getEvents(0x1)\n\t/s.go:1") {
		t.Fatal("serve handler stack not recognized as module goroutine")
	}
	if !inModule("goroutine 5 [select]:\nrepro.(*Job).publish(0x1)\n\t/j.go:1") {
		t.Fatal("facade stack not recognized as module goroutine")
	}
	if inModule("goroutine 5 [IO wait]:\nnet/http.(*persistConn).readLoop(0x1)\n\t/h.go:1") {
		t.Fatal("net/http plumbing misclassified as module goroutine")
	}
	if inModule("goroutine 5 [syscall]:\nos/signal.signal_recv()\n\t/sig.go:1") {
		t.Fatal("signal plumbing misclassified as module goroutine")
	}
}

// parkA and parkB are two distinct parking places for one fixture
// goroutine, so its stack differs depending on where it waits.
func parkA(moveOn chan struct{})  { <-moveOn }
func parkB(release chan struct{}) { <-release }

// TestSecondCheckIsNoOp: a helper that calls Check, used twice in one
// test. Fixture 1's goroutine sits in parkA when the second Check
// snapshots and has moved to parkB by teardown, a stack the second
// snapshot never saw. Cleanups run last-in first-out, so the second
// check's cleanup would run before fixture 1's teardown and wait out
// settleTimeout on that goroutine. Only the first check counts; it
// runs after every teardown and finds nothing left.
func TestSecondCheckIsNoOp(t *testing.T) {
	rec := &recorder{}
	Check(rec)
	moveOn, release, exited := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		parkA(moveOn)
		parkB(release)
	}()
	rec.Cleanup(func() { close(release); <-exited }) // fixture 1's teardown
	waitFor(t, "parkA")
	Check(rec) // the second check
	close(moveOn)
	waitFor(t, "parkB")
	start := time.Now()
	rec.runCleanups()
	if rec.failed {
		t.Fatalf("second check reported fixture 1 before its teardown: %s", rec.message)
	}
	if d := time.Since(start); d > settleTimeout/2 {
		t.Fatalf("teardown took %v: a check waited on a goroutine that was about to exit", d)
	}
	if len(rec.cleanups) != 2 {
		t.Fatalf("%d cleanups registered, want 2 (the second Check adds none)", len(rec.cleanups))
	}
}

// waitFor polls until a module goroutine parks in fn.
func waitFor(t *testing.T, fn string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, g := range moduleGoroutines() {
			if strings.Contains(g, "testleak."+fn+"(") {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no goroutine parked in %s", fn)
		}
		time.Sleep(time.Millisecond)
	}
}
