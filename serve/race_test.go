package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro"
	"repro/serve"
)

// raceSetup uploads the 51-SNP preset and opens a session over it.
func raceSetup(t *testing.T, client *serve.Client) serve.SessionInfo {
	t.Helper()
	ctx := context.Background()
	ds, err := client.CreateDataset(ctx, serve.DatasetRequest{Format: serve.FormatPreset, Preset: 51, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := client.CreateSession(ctx, serve.SessionRequest{DatasetID: ds.ID, Statistic: "T1"})
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestServeRaceEndToEnd: a racing job streams leaderboard frames over
// SSE and terminates with a done event whose race outcome names a
// winner; the leaderboard includes the stpga optimizer and the AA
// statistic, and the lane the budget cut carries canceled_by_race
// with its partial best.
func TestServeRaceEndToEnd(t *testing.T) {
	client, _ := newTestServer(t, serve.RegistryConfig{})
	ctx := context.Background()
	sess := raceSetup(t, client)

	long := testGAConfig(5)
	long.StagnationLimit = 100000
	long.MaxGenerations = 100000
	job, err := client.StartJob(ctx, sess.ID, serve.JobRequest{
		Config: long,
		Race: &repro.RaceSpec{
			Lanes: []repro.RaceLaneSpec{
				{Optimizer: "exhaustive", Statistic: "T1"},
				{Optimizer: "stpga", Statistic: "AA"},
				{Optimizer: "ga", Statistic: "T1"},
			},
			SubsetSize: 2,
			Budget:     6000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.State != serve.JobRunning || job.Race == nil {
		t.Fatalf("created race job = %+v, want running with a race section", job)
	}

	boards, generations := 0, 0
	var lastBoard *repro.RaceBoard
	final, err := client.StreamEvents(ctx, job.ID, func(e serve.Event) error {
		switch e.Type {
		case serve.EventLeaderboard:
			boards++
			lastBoard = e.Board
		case serve.EventGeneration:
			generations++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if boards == 0 || generations != 0 {
		t.Fatalf("stream delivered %d leaderboard and %d generation frames, want boards only", boards, generations)
	}
	if len(lastBoard.Lanes) != 3 {
		t.Fatalf("final board has %d lanes: %+v", len(lastBoard.Lanes), lastBoard.Lanes)
	}
	if final == nil || final.State != serve.JobDone || final.Race == nil || final.Race.Result == nil {
		t.Fatalf("final job = %+v, want done with a race result", final)
	}

	res := final.Race.Result
	if res.Winner.Name == "" {
		t.Fatalf("race named no winner: %+v", res)
	}
	byName := map[string]repro.RaceLaneStatus{}
	for _, ln := range res.Lanes {
		byName[ln.Name] = ln
	}
	// The exhaustive lane walks C(51,2) = 1275 subsets; whether it
	// finishes before the shared 6000-eval budget is spent depends on
	// scheduling, but a cut must be labeled as one and keep its
	// partial best.
	ex, ok := byName["exhaustive/T1"]
	if !ok || (ex.State != repro.RaceLaneDone && ex.State != repro.RaceLaneCanceledByRace) {
		t.Fatalf("exhaustive lane = %+v, want done or canceled_by_race", ex)
	}
	if len(ex.BestSites) == 0 {
		t.Fatalf("exhaustive lane lost its best: %+v", ex)
	}
	if _, ok := byName["stpga/AA"]; !ok {
		t.Fatalf("leaderboard misses the stpga/AA lane: %+v", res.Lanes)
	}
	ga, ok := byName["ga/T1"]
	if !ok || ga.State != repro.RaceLaneCanceledByRace {
		t.Fatalf("ga lane = %+v, want canceled_by_race (the budget cuts the never-converging GA)", ga)
	}
	if len(ga.BestSites) == 0 {
		t.Fatalf("cut ga lane lost its partial best: %+v", ga)
	}
	if res.TotalSharedHits == 0 {
		t.Fatal("race recorded no shared cache hits across lanes")
	}

	// The status document agrees with the stream's outcome.
	ji, err := client.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ji.State != serve.JobDone || ji.Race == nil || ji.Race.Result == nil {
		t.Fatalf("GET job = %+v, want done with a race result", ji)
	}
	if !ji.Race.Board.Finished {
		t.Fatalf("GET job board not finished: %+v", ji.Race.Board)
	}
}

// TestServeRaceDeleteReturnsPartial: DELETE on a running race cancels
// every lane and answers with the partial best-so-far per lane.
func TestServeRaceDeleteReturnsPartial(t *testing.T) {
	client, _ := newTestServer(t, serve.RegistryConfig{})
	ctx := context.Background()
	sess := raceSetup(t, client)

	long := testGAConfig(9)
	long.StagnationLimit = 100000
	long.MaxGenerations = 100000
	job, err := client.StartJob(ctx, sess.ID, serve.JobRequest{
		Config: long,
		Race: &repro.RaceSpec{
			Lanes: []repro.RaceLaneSpec{
				{Optimizer: "ga", Statistic: "T1"},
				{Optimizer: "ga", Statistic: "AA", Name: "ga/AA"},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let the lanes record some progress before the stop — every lane,
	// not only the race in total: the AA lane's first evaluations can
	// trail the T1 lane's first 50.
	deadline := time.Now().Add(30 * time.Second)
	for {
		ji, err := client.Job(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if ji.Race != nil && ji.Race.Board.TotalEvaluations >= 50 && everyLaneHasBest(ji.Race.Board) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("race made no progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopped, err := client.StopJob(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stopped.State != serve.JobCanceled || stopped.Race == nil || stopped.Race.Result == nil {
		t.Fatalf("stopped race = %+v, want canceled with a partial race result", stopped)
	}
	for _, ln := range stopped.Race.Result.Lanes {
		if ln.State != repro.RaceLaneCanceled {
			t.Fatalf("lane %q state = %q, want canceled (outside stop, not a policy cut)", ln.Name, ln.State)
		}
		if len(ln.BestSites) == 0 {
			t.Fatalf("canceled lane %q lost its partial best", ln.Name)
		}
	}
}

// everyLaneHasBest reports whether every lane on the board has
// recorded a best haplotype.
func everyLaneHasBest(b repro.RaceBoard) bool {
	for _, ln := range b.Lanes {
		if len(ln.BestSites) == 0 {
			return false
		}
	}
	return len(b.Lanes) > 0
}

// TestServeRaceBadRequests: option conflicts and unknown lane names
// are bad_request, and they never leak a job slot.
func TestServeRaceBadRequests(t *testing.T) {
	client, _ := newTestServer(t, serve.RegistryConfig{MaxJobsPerSession: 1})
	ctx := context.Background()
	sess := raceSetup(t, client)

	oneLane := []repro.RaceLaneSpec{{Optimizer: "ga"}}
	for name, req := range map[string]serve.JobRequest{
		"race+sweep":    {Race: &repro.RaceSpec{Lanes: oneLane}, Sweep: &serve.SweepSpec{}},
		"race+islands":  {Race: &repro.RaceSpec{Lanes: oneLane}, Islands: 2},
		"bad optimizer": {Race: &repro.RaceSpec{Lanes: []repro.RaceLaneSpec{{Optimizer: "annealing"}}}},
		"bad statistic": {Race: &repro.RaceSpec{Lanes: []repro.RaceLaneSpec{{Statistic: "T9"}}}},
		"no lanes":      {Race: &repro.RaceSpec{}},
	} {
		req.Config = testGAConfig(1)
		if _, err := client.StartJob(ctx, sess.ID, req); !errors.Is(err, repro.ErrBadConfig) {
			t.Fatalf("%s: err = %v, want ErrBadConfig", name, err)
		}
	}
	// All slots must still be free after the failures.
	job, err := client.StartJob(ctx, sess.ID, serve.JobRequest{
		Config: testGAConfig(2),
		Race:   &repro.RaceSpec{Lanes: oneLane},
	})
	if err != nil {
		t.Fatalf("race after failed requests: %v", err)
	}
	if _, err := client.StreamEvents(ctx, job.ID, nil); err != nil {
		t.Fatal(err)
	}
}

// TestServeRaceWireFields pins the serve-side race wire keys: the
// "race" key on JobRequest and JobInfo, and RaceInfo's board/result.
func TestServeRaceWireFields(t *testing.T) {
	keysOf := func(v any) map[string]bool {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		keys := map[string]bool{}
		for k := range m {
			keys[k] = true
		}
		return keys
	}
	if k := keysOf(serve.JobRequest{Race: &repro.RaceSpec{}}); !k["race"] {
		t.Errorf("JobRequest lacks the race key: %v", k)
	}
	if k := keysOf(serve.JobInfo{Race: &serve.RaceInfo{}}); !k["race"] {
		t.Errorf("JobInfo lacks the race key: %v", k)
	}
	k := keysOf(serve.RaceInfo{Result: &repro.RaceResult{}})
	for _, want := range []string{"board", "result"} {
		if !k[want] {
			t.Errorf("RaceInfo lacks the %s key: %v", want, k)
		}
		delete(k, want)
	}
	for extra := range k {
		t.Errorf("RaceInfo has unexpected key %q", extra)
	}
	in := serve.RaceInfo{
		Board:  repro.RaceBoard{Seq: 3, Leader: "ga/T1", TotalEvaluations: 100, Finished: true},
		Result: &repro.RaceResult{Winner: repro.RaceLaneStatus{Name: "ga/T1"}},
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out serve.RaceInfo
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in: %+v\ngot: %+v", in, out)
	}
}

// TestServeMaxJobsSaturation saturates a session's max_jobs slots and
// pins the busy envelope: HTTP 429 with code "busy". Slots release
// both on natural completion and on DELETE; a racing job occupies a
// slot like a GA job.
func TestServeMaxJobsSaturation(t *testing.T) {
	client, _ := newTestServer(t, serve.RegistryConfig{MaxJobsPerSession: 2})
	ctx := context.Background()
	sess := raceSetup(t, client)
	if sess.MaxJobs != 2 {
		t.Fatalf("MaxJobs = %d, want 2", sess.MaxJobs)
	}

	long := testGAConfig(3)
	long.StagnationLimit = 100000
	long.MaxGenerations = 100000
	gaJob, err := client.StartJob(ctx, sess.ID, serve.JobRequest{Config: long})
	if err != nil {
		t.Fatal(err)
	}
	raceJob, err := client.StartJob(ctx, sess.ID, serve.JobRequest{
		Config: long,
		Race:   &repro.RaceSpec{Lanes: []repro.RaceLaneSpec{{Optimizer: "ga"}}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Saturated: the envelope is HTTP 429 with the stable "busy" code.
	_, err = client.StartJob(ctx, sess.ID, serve.JobRequest{Config: testGAConfig(4)})
	var apiErr *serve.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("saturated start err = %v, want an APIError", err)
	}
	if apiErr.Status != 429 || apiErr.Code != serve.CodeBusy {
		t.Fatalf("busy envelope = HTTP %d code %q, want 429 %q", apiErr.Status, apiErr.Code, serve.CodeBusy)
	}
	if !errors.Is(err, repro.ErrSessionBusy) {
		t.Fatalf("envelope does not map back to ErrSessionBusy: %v", err)
	}
	si, err := client.Session(ctx, sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if si.ActiveJobs != 2 {
		t.Fatalf("ActiveJobs = %d, want 2", si.ActiveJobs)
	}

	// DELETE releases one slot…
	if _, err := client.StopJob(ctx, gaJob.ID); err != nil {
		t.Fatal(err)
	}
	quick, err := client.StartJob(ctx, sess.ID, serve.JobRequest{Config: testGAConfig(6)})
	if err != nil {
		t.Fatalf("start after DELETE: %v", err)
	}
	// …and natural completion releases another: drain the quick job to
	// its end, then the freed slot accepts a new start.
	if _, err := client.StreamEvents(ctx, quick.ID, nil); err != nil {
		t.Fatal(err)
	}
	next, err := client.StartJob(ctx, sess.ID, serve.JobRequest{Config: testGAConfig(8)})
	if err != nil {
		t.Fatalf("start after completion: %v", err)
	}
	if _, err := client.StopJob(ctx, next.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := client.StopJob(ctx, raceJob.ID); err != nil {
		t.Fatal(err)
	}
}
