package repro_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro"
)

// TestConcurrentStartsShareSession: concurrent Session.Start calls on
// one unlimited session are safe — every job runs to completion and,
// with the session's default seed, reproduces the synchronous run bit
// for bit.
func TestConcurrentStartsShareSession(t *testing.T) {
	d := backendTestDataset(t)
	s, err := repro.NewSession(d, repro.WithWorkers(2), repro.WithGAConfig(backendTestConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 4
	jobs := make([]*repro.Job, n)
	startErrs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			jobs[i], startErrs[i] = s.Start(context.Background())
		}(i)
	}
	wg.Wait()
	ref, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if startErrs[i] != nil {
			t.Fatalf("concurrent Start %d failed: %v", i, startErrs[i])
		}
		res, err := jobs[i].Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		assertSameResult(t, fmt.Sprintf("job%d-vs-run", i), ref, res)
	}
	if got := s.ActiveJobs(); got != 0 {
		t.Fatalf("ActiveJobs = %d after all jobs finished, want 0", got)
	}
}

// TestJobLimitRejectsWithErrSessionBusy: a WithJobLimit session
// rejects Start beyond the cap with the typed sentinel, and frees the
// slot when the job ends.
func TestJobLimitRejectsWithErrSessionBusy(t *testing.T) {
	d := backendTestDataset(t)
	s, err := repro.NewSession(d, repro.WithWorkers(2),
		repro.WithJobLimit(1), repro.WithGAConfig(longRunConfig(3)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.JobLimit(); got != 1 {
		t.Fatalf("JobLimit = %d, want 1", got)
	}
	job, err := s.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Start(context.Background()); !errors.Is(err, repro.ErrSessionBusy) {
		t.Fatalf("second Start err = %v, want ErrSessionBusy", err)
	}
	if got := s.ActiveJobs(); got != 1 {
		t.Fatalf("ActiveJobs = %d, want 1", got)
	}
	if _, err := job.Stop(); !errors.Is(err, repro.ErrCanceled) {
		t.Fatalf("Stop err = %v, want ErrCanceled", err)
	}
	// The slot is free again: a short job starts and finishes.
	job2, err := s.Start(context.Background(), repro.WithGAConfig(backendTestConfig()))
	if err != nil {
		t.Fatalf("Start after the slot freed: %v", err)
	}
	if _, err := job2.Wait(); err != nil {
		t.Fatal(err)
	}
	// WithJobLimit is session-level only.
	if _, err := s.Run(context.Background(), repro.WithJobLimit(2)); !errors.Is(err, repro.ErrBadConfig) {
		t.Fatalf("run-level WithJobLimit err = %v, want ErrBadConfig", err)
	}
}

// TestJobLimitUnderStartRace: with limit 2, eight racing Start calls
// admit exactly two jobs — the reservation is atomic, never
// overshooting the cap.
func TestJobLimitUnderStartRace(t *testing.T) {
	d := backendTestDataset(t)
	s, err := repro.NewSession(d, repro.WithWorkers(2),
		repro.WithJobLimit(2), repro.WithGAConfig(longRunConfig(13)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 8
	var mu sync.Mutex
	var admitted []*repro.Job
	busy := 0
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job, err := s.Start(context.Background())
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				admitted = append(admitted, job)
			case errors.Is(err, repro.ErrSessionBusy):
				busy++
			default:
				t.Errorf("Start: %v", err)
			}
		}()
	}
	wg.Wait()
	if len(admitted) != 2 || busy != n-2 {
		t.Fatalf("admitted %d jobs, %d busy; want 2 and %d", len(admitted), busy, n-2)
	}
	for _, job := range admitted {
		job.Stop()
	}
}

// TestJobProgressConflatesUnderSlowConsumer: the server's SSE path
// depends on the documented Progress contract — a consumer that stops
// reading never blocks the GA, and when it resumes it sees conflated
// (gapped) but strictly ordered entries.
func TestJobProgressConflatesUnderSlowConsumer(t *testing.T) {
	d := backendTestDataset(t)
	s, err := repro.NewSession(d, repro.WithWorkers(2), repro.WithGAConfig(longRunConfig(11)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	job, err := s.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	first, ok := <-job.Progress()
	if !ok {
		t.Fatal("progress closed before the first generation")
	}
	// Stop consuming entirely. The GA must keep running far past the
	// progress buffer's capacity — if a full buffer could block the
	// generation loop, this would never reach the target.
	target := first.Generation + 60
	deadline := time.Now().Add(30 * time.Second)
	for job.Report().Generation < target {
		if time.Now().After(deadline) {
			t.Fatalf("GA stalled at generation %d with an unread progress buffer (target %d)",
				job.Report().Generation, target)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Resume reading: entries must be strictly ordered, and the slow
	// consumer must have missed generations (the buffer conflated).
	last := first.Generation
	sawGap := false
	for i := 0; i < 10; i++ {
		e, ok := <-job.Progress()
		if !ok {
			t.Fatalf("progress closed unexpectedly at generation %d", last)
		}
		if e.Generation <= last {
			t.Fatalf("progress out of order: %d after %d", e.Generation, last)
		}
		if e.Generation > last+1 {
			sawGap = true
		}
		last = e.Generation
	}
	if !sawGap {
		t.Fatal("slow consumer saw every generation; conflation should have dropped old entries")
	}
	res, err := job.Stop()
	if !errors.Is(err, repro.ErrCanceled) {
		t.Fatalf("Stop err = %v, want ErrCanceled", err)
	}
	if res.Generations < target {
		t.Fatalf("run stopped at generation %d, want at least %d (GA must not wait on the consumer)",
			res.Generations, target)
	}
	for range job.Progress() {
	}
}

// TestJobReportElapsedStopsAtEnd: once a job has ended, Report's
// Elapsed is the run's duration, so two reads a sleep apart agree.
func TestJobReportElapsedStopsAtEnd(t *testing.T) {
	s, err := repro.NewSession(backendTestDataset(t), repro.WithWorkers(2), repro.WithGAConfig(backendTestConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	job, err := s.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	first := job.Report().Elapsed
	time.Sleep(10 * time.Millisecond)
	if second := job.Report().Elapsed; first != second || first <= 0 {
		t.Fatalf("finished job's Elapsed moved: %v then %v", first, second)
	}
}
