package serve_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro"
	"repro/internal/testleak"
	"repro/serve"
)

// testGAConfig is small enough to finish in well under a second on
// the 51-SNP preset while still exercising several generations.
func testGAConfig(seed uint64) repro.GAConfig {
	return repro.GAConfig{
		MinSize: 2, MaxSize: 3, PopulationSize: 24,
		PairsPerGeneration: 8, StagnationLimit: 12,
		ImmigrantStagnation: 5, MaxGenerations: 200, Seed: seed,
	}
}

func newTestServer(t *testing.T, cfg serve.RegistryConfig, opts ...serve.ServerOption) (*serve.Client, *serve.Registry) {
	t.Helper()
	testleak.Check(t)
	if cfg.SweepInterval == 0 {
		cfg.SweepInterval = -1 // tests sweep explicitly
	}
	reg := serve.NewRegistry(cfg)
	srv, err := serve.NewServer(reg, opts...)
	if err != nil {
		reg.Close()
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	return serve.NewClient(ts.URL, ts.Client()), reg
}

// TestServeEndToEnd is the acceptance path: upload the 51-SNP preset,
// run a job, consume the SSE stream, and check the final result is
// bit-identical to Session.Run with the same seed; then a second job
// on the same session shows nonzero cache hits in the stats.
func TestServeEndToEnd(t *testing.T) {
	client, _ := newTestServer(t, serve.RegistryConfig{})
	ctx := context.Background()

	ds, err := client.CreateDataset(ctx, serve.DatasetRequest{
		Format: serve.FormatPreset, Preset: 51, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumSNPs != 51 || ds.Affected != 53 || ds.Unaffected != 53 {
		t.Fatalf("preset dims %+v, want the paper's 51-SNP study", ds)
	}
	if ds.HWE.Tested != 51 {
		t.Fatalf("HWE summary tested %d SNPs, want 51", ds.HWE.Tested)
	}

	sess, err := client.CreateSession(ctx, serve.SessionRequest{DatasetID: ds.ID})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Backend != "native" || sess.Statistic != "T1" {
		t.Fatalf("session defaults %+v, want native/T1", sess)
	}

	// Larger sizes make each generation expensive enough (~tens of
	// ms) that the run is still in flight when the SSE client
	// attaches; a MaxSize-3 run can finish before the GET arrives.
	cfg := repro.GAConfig{
		MinSize: 2, MaxSize: 4, PopulationSize: 60,
		StagnationLimit: 30, ImmigrantStagnation: 10, Seed: 5,
	}
	job, err := client.StartJob(ctx, sess.ID, serve.JobRequest{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if job.State != serve.JobRunning && job.State != serve.JobDone {
		t.Fatalf("fresh job state %q", job.State)
	}

	// Consume the SSE stream: strictly ordered generations, then a
	// terminating done event carrying the result.
	last := 0
	entries := 0
	final, err := client.StreamEvents(ctx, job.ID, func(ev serve.Event) error {
		if ev.Type == serve.EventGeneration {
			if ev.Entry.Generation <= last {
				t.Errorf("SSE out of order: %d after %d", ev.Entry.Generation, last)
			}
			last = ev.Entry.Generation
			entries++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final == nil || final.State != serve.JobDone || final.Result == nil {
		t.Fatalf("stream ended without a done result: %+v", final)
	}
	if entries == 0 || last != final.Result.Generations {
		t.Fatalf("streamed %d entries ending at %d, result has %d generations",
			entries, last, final.Result.Generations)
	}

	// GET /v1/jobs/{id} agrees with the stream.
	got, err := client.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != serve.JobDone || got.Report.Running {
		t.Fatalf("job status after completion: %+v", got)
	}

	// Bit-identical to a direct Session.Run with the same seed.
	data, err := repro.Paper51Dataset(1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := repro.NewSession(data)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, err := ref.Run(ctx, repro.WithGAConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got.Result) {
		t.Fatalf("served result differs from Session.Run:\nwant %+v\n got %+v", want, got.Result)
	}

	// A second job on the same session rides the warmed cache.
	st1, err := client.Stats(ctx, sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Engine == nil {
		t.Fatal("native session stats carry no engine report")
	}
	cfg2 := cfg
	cfg2.Seed = 6
	job2, err := client.StartJob(ctx, sess.ID, serve.JobRequest{Config: cfg2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.StreamEvents(ctx, job2.ID, nil); err != nil {
		t.Fatal(err)
	}
	st2, err := client.Stats(ctx, sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Engine.CacheHits == 0 {
		t.Fatal("second job produced no cache hits")
	}
	if st2.Engine.CacheHits <= st1.Engine.CacheHits {
		t.Fatalf("cache hits did not grow across jobs: %d then %d",
			st1.Engine.CacheHits, st2.Engine.CacheHits)
	}
	if st2.HitRate <= 0 {
		t.Fatalf("hit rate %v, want > 0", st2.HitRate)
	}
}

// TestServeIslandJob: a job created with island config runs on the
// island engine, streams stamped per-island entries (ordered within
// each island), and returns a result with per-island stats; island
// misconfiguration maps to bad_request.
func TestServeIslandJob(t *testing.T) {
	client, _ := newTestServer(t, serve.RegistryConfig{})
	ctx := context.Background()

	ds, err := client.CreateDataset(ctx, serve.DatasetRequest{
		Format: serve.FormatPreset, Preset: 51, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := client.CreateSession(ctx, serve.SessionRequest{DatasetID: ds.ID})
	if err != nil {
		t.Fatal(err)
	}

	cfg := testGAConfig(9) // sizes 2..3: Islands beyond 2 clamp to 2
	job, err := client.StartJob(ctx, sess.ID, serve.JobRequest{
		Config: cfg, Islands: 2, MigrationInterval: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	lastByIsland := map[int]int{}
	final, err := client.StreamEvents(ctx, job.ID, func(ev serve.Event) error {
		if ev.Type != serve.EventGeneration {
			return nil
		}
		if ev.Entry.Island == 0 {
			t.Error("island job streamed an unstamped entry")
		}
		if ev.Entry.Generation <= lastByIsland[ev.Entry.Island] {
			t.Errorf("island %d out of order: %d after %d",
				ev.Entry.Island, ev.Entry.Generation, lastByIsland[ev.Entry.Island])
		}
		lastByIsland[ev.Entry.Island] = ev.Entry.Generation
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final == nil || final.State != serve.JobDone || final.Result == nil {
		t.Fatalf("island stream ended without a done result: %+v", final)
	}
	if len(final.Result.Islands) != 2 {
		t.Fatalf("want 2 island stats in the served result, got %+v", final.Result.Islands)
	}
	for s := cfg.MinSize; s <= cfg.MaxSize; s++ {
		if final.Result.BestBySize[s] == nil {
			t.Errorf("served island result misses size %d", s)
		}
	}

	// Migration config without islands is a bad request.
	_, err = client.StartJob(ctx, sess.ID, serve.JobRequest{Config: cfg, MigrationInterval: 5})
	if !errors.Is(err, repro.ErrBadConfig) {
		t.Fatalf("migration without islands: want ErrBadConfig, got %v", err)
	}
	// So is a negative island count.
	_, err = client.StartJob(ctx, sess.ID, serve.JobRequest{Config: cfg, Islands: -2})
	if !errors.Is(err, repro.ErrBadConfig) {
		t.Fatalf("negative islands: want ErrBadConfig, got %v", err)
	}
}

// TestServeErrorMapping: the client maps wire error codes back onto
// the package sentinels across the HTTP boundary.
func TestServeErrorMapping(t *testing.T) {
	client, _ := newTestServer(t, serve.RegistryConfig{})
	ctx := context.Background()

	if _, err := client.Job(ctx, "j-404"); !errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("unknown job err = %v, want ErrNotFound", err)
	}
	if _, err := client.Dataset(ctx, "ds-nope"); !errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("unknown dataset err = %v, want ErrNotFound", err)
	}
	if _, err := client.CreateSession(ctx, serve.SessionRequest{DatasetID: "ds-nope"}); !errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("session on unknown dataset err = %v, want ErrNotFound", err)
	}
	if _, err := client.CreateDataset(ctx, serve.DatasetRequest{Format: "xlsx"}); !errors.Is(err, repro.ErrBadConfig) {
		t.Fatalf("bad format err = %v, want ErrBadConfig", err)
	}
	var apiErr *serve.APIError
	_, err := client.CreateDataset(ctx, serve.DatasetRequest{Format: serve.FormatTable, Content: "garbage"})
	if !errors.As(err, &apiErr) || apiErr.Status != 400 || apiErr.Code != serve.CodeBadRequest {
		t.Fatalf("bad table upload err = %v, want 400/bad_request", err)
	}

	ds, err := client.CreateDataset(ctx, serve.DatasetRequest{Format: serve.FormatPreset, Preset: 51, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.CreateSession(ctx, serve.SessionRequest{DatasetID: ds.ID, Backend: "mpi"}); !errors.Is(err, repro.ErrBadConfig) {
		t.Fatalf("bad backend err = %v, want ErrBadConfig", err)
	}
	sess, err := client.CreateSession(ctx, serve.SessionRequest{DatasetID: ds.ID})
	if err != nil {
		t.Fatal(err)
	}
	bad := repro.GAConfig{MinSize: 5, MaxSize: 2}
	if _, err := client.StartJob(ctx, sess.ID, serve.JobRequest{Config: bad}); !errors.Is(err, repro.ErrBadConfig) {
		t.Fatalf("bad GA config err = %v, want ErrBadConfig", err)
	}
}

// TestServeJobLimitAndStop: the per-session job cap surfaces as 429 /
// ErrSessionBusy, and DELETE yields the canceled partial result.
func TestServeJobLimitAndStop(t *testing.T) {
	client, _ := newTestServer(t, serve.RegistryConfig{MaxJobsPerSession: 1})
	ctx := context.Background()

	ds, err := client.CreateDataset(ctx, serve.DatasetRequest{Format: serve.FormatPreset, Preset: 51, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := client.CreateSession(ctx, serve.SessionRequest{DatasetID: ds.ID})
	if err != nil {
		t.Fatal(err)
	}
	if sess.MaxJobs != 1 {
		t.Fatalf("MaxJobs = %d, want 1", sess.MaxJobs)
	}
	long := testGAConfig(7)
	long.StagnationLimit = 100000
	long.MaxGenerations = 100000
	job, err := client.StartJob(ctx, sess.ID, serve.JobRequest{Config: long})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.StartJob(ctx, sess.ID, serve.JobRequest{Config: long}); !errors.Is(err, repro.ErrSessionBusy) {
		t.Fatalf("second job err = %v, want ErrSessionBusy", err)
	}
	si, err := client.Session(ctx, sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if si.ActiveJobs != 1 {
		t.Fatalf("ActiveJobs = %d, want 1", si.ActiveJobs)
	}

	// Let it make some progress, then DELETE: canceled, partial result.
	deadline := time.Now().Add(30 * time.Second)
	for {
		ji, err := client.Job(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if ji.Report.Generation >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job made no progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopped, err := client.StopJob(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stopped.State != serve.JobCanceled || stopped.Result == nil {
		t.Fatalf("stopped job %+v, want canceled with a partial result", stopped)
	}
	if len(stopped.Result.BestBySize) == 0 || stopped.Result.Generations < 2 {
		t.Fatalf("partial result unusable: %+v", stopped.Result)
	}
	// The slot frees up.
	job2, err := client.StartJob(ctx, sess.ID, serve.JobRequest{Config: testGAConfig(8)})
	if err != nil {
		t.Fatalf("Start after stop: %v", err)
	}
	if _, err := client.StreamEvents(ctx, job2.ID, nil); err != nil {
		t.Fatal(err)
	}
}

// TestServeSSELateSubscriber: a subscriber attaching to a finished
// job immediately receives the done event; one attaching mid-run is
// seeded with the latest entry.
func TestServeSSELateSubscriber(t *testing.T) {
	client, _ := newTestServer(t, serve.RegistryConfig{})
	ctx := context.Background()

	ds, err := client.CreateDataset(ctx, serve.DatasetRequest{Format: serve.FormatPreset, Preset: 51, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := client.CreateSession(ctx, serve.SessionRequest{DatasetID: ds.ID})
	if err != nil {
		t.Fatal(err)
	}
	job, err := client.StartJob(ctx, sess.ID, serve.JobRequest{Config: testGAConfig(9)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.StreamEvents(ctx, job.ID, nil); err != nil {
		t.Fatal(err)
	}
	// The run is over; a fresh stream still terminates with done.
	sawGeneration := false
	final, err := client.StreamEvents(ctx, job.ID, func(ev serve.Event) error {
		if ev.Type == serve.EventGeneration {
			sawGeneration = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final == nil || final.State != serve.JobDone || final.Result == nil {
		t.Fatalf("late subscription got %+v, want an immediate done event", final)
	}
	if sawGeneration {
		t.Error("late subscriber received generation events after the stream closed")
	}

	// A finished race follows the same rule: its late subscriber gets
	// the final leaderboard, then done.
	race, err := client.StartJob(ctx, sess.ID, serve.JobRequest{
		Config: testGAConfig(9),
		Race:   &repro.RaceSpec{Lanes: []repro.RaceLaneSpec{{Optimizer: "stpga"}}, SubsetSize: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.StreamEvents(ctx, race.ID, nil); err != nil {
		t.Fatal(err)
	}
	checkFinishedRaceStream(t, client, race.ID)
}

// checkFinishedRaceStream asserts what a subscriber to a finished race
// receives: exactly one leaderboard frame, the final one, then done
// with the race outcome.
func checkFinishedRaceStream(t *testing.T, client *serve.Client, jobID string) {
	t.Helper()
	var boards []repro.RaceBoard
	final, err := client.StreamEvents(context.Background(), jobID, func(ev serve.Event) error {
		switch ev.Type {
		case serve.EventLeaderboard:
			boards = append(boards, *ev.Board)
		case serve.EventGeneration:
			t.Error("finished race streamed a generation frame")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(boards) != 1 || !boards[0].Finished {
		t.Fatalf("finished race streamed boards %+v, want exactly the final one", boards)
	}
	if final == nil || final.State != serve.JobDone || final.Race == nil || final.Race.Result == nil {
		t.Fatalf("finished race done = %+v, want done with a race result", final)
	}
}

// TestServeJobLimitSlotFreedBeforeDone: a job frees its slot before
// its stream delivers done, so a closed-loop client on a one-slot
// session can start the next job the moment it reads done — for GA
// runs and for sweeps.
func TestServeJobLimitSlotFreedBeforeDone(t *testing.T) {
	client, reg := newTestServer(t, serve.RegistryConfig{MaxJobsPerSession: 1})
	ctx := context.Background()
	ds, err := reg.AddDataset(smallDatasetRequest(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := client.CreateSession(ctx, serve.SessionRequest{DatasetID: ds.ID, ShardSize: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cycle := func(req serve.JobRequest) {
		t.Helper()
		job, err := client.StartJob(ctx, sess.ID, req)
		if err != nil {
			t.Fatalf("start right after the previous done: %v", err)
		}
		if final, err := client.StreamEvents(ctx, job.ID, nil); err != nil || final == nil || final.State != serve.JobDone {
			t.Fatalf("job %s final = %+v, %v; want done", job.ID, final, err)
		}
	}
	for i := 0; i < 20; i++ {
		cfg := testGAConfig(uint64(i))
		cfg.MaxGenerations = 4
		cycle(serve.JobRequest{Config: cfg})
	}
	for i := 0; i < 3; i++ {
		cycle(serve.JobRequest{Sweep: &serve.SweepSpec{Size: 2}})
	}
}

// TestServeDrainAcrossKinds: BeginDrain ends the event stream of every
// job kind — GA run, race and sweep — with done in state canceled
// carrying the kind's partial section, and Close then returns.
func TestServeDrainAcrossKinds(t *testing.T) {
	client, reg := newTestServer(t, serve.RegistryConfig{})
	ctx := context.Background()
	sess := raceSetup(t, client)
	wide, err := client.CreateDataset(ctx, serve.DatasetRequest{Format: serve.FormatPreset, Preset: 249, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := client.CreateSession(ctx, serve.SessionRequest{DatasetID: wide.ID, ShardSize: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	long := testGAConfig(11)
	long.StagnationLimit = 100000
	long.MaxGenerations = 100000
	starts := []struct {
		kind, sessionID string
		req             serve.JobRequest
	}{
		{"ga", sess.ID, serve.JobRequest{Config: long}},
		{"race", sess.ID, serve.JobRequest{Config: long, Race: &repro.RaceSpec{Lanes: []repro.RaceLaneSpec{{Optimizer: "ga"}}}}},
		{"sweep", sharded.ID, serve.JobRequest{Sweep: &serve.SweepSpec{Size: 12}}},
	}
	type outcome struct {
		kind  string
		final *serve.JobInfo
		err   error
	}
	outcomes := make(chan outcome, len(starts))
	streaming := make(chan struct{}, len(starts))
	for _, st := range starts {
		job, err := client.StartJob(ctx, st.sessionID, st.req)
		if err != nil {
			t.Fatalf("%s start: %v", st.kind, err)
		}
		go func(kind, id string) {
			first := true
			final, err := client.StreamEvents(ctx, id, func(serve.Event) error {
				if first {
					first = false
					streaming <- struct{}{}
				}
				return nil
			})
			outcomes <- outcome{kind, final, err}
		}(st.kind, job.ID)
	}
	// Drain once every stream has delivered a frame.
	for range starts {
		select {
		case <-streaming:
		case <-time.After(30 * time.Second):
			t.Fatal("a job streamed no frame")
		}
	}
	reg.BeginDrain()
	for range starts {
		o := <-outcomes
		if o.err != nil || o.final == nil || o.final.State != serve.JobCanceled {
			t.Fatalf("%s stream ended with %+v, %v; want done in state canceled", o.kind, o.final, o.err)
		}
		var partial bool
		switch o.kind {
		case "ga":
			partial = o.final.Result != nil
		case "race":
			partial = o.final.Race != nil && len(o.final.Race.Board.Lanes) == 1
		case "sweep":
			partial = o.final.Sweep != nil
		}
		if !partial {
			t.Fatalf("drained %s job lacks its partial section: %+v", o.kind, o.final)
		}
	}
	reg.Close()
}
