package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro"
	"repro/serve"
)

// mustFSStore opens an FSStore over dir or fails the test.
func mustFSStore(t *testing.T, dir string) *serve.FSStore {
	t.Helper()
	st, err := serve.NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// runJobToCompletion uploads the 51-SNP preset, opens a session, runs
// one small job to the end, and returns the ids plus the finished
// job's raw result JSON.
func runJobToCompletion(t *testing.T, client *serve.Client) (dsID, sessID, jobID string, resultJSON []byte) {
	t.Helper()
	ctx := context.Background()
	ds, err := client.CreateDataset(ctx, serve.DatasetRequest{Format: serve.FormatPreset, Preset: 51, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := client.CreateSession(ctx, serve.SessionRequest{DatasetID: ds.ID})
	if err != nil {
		t.Fatal(err)
	}
	job, err := client.StartJob(ctx, sess.ID, serve.JobRequest{Config: testGAConfig(3)})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.StreamEvents(ctx, job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final == nil || final.State != serve.JobDone || final.Result == nil {
		t.Fatalf("job did not finish cleanly: %+v", final)
	}
	b, err := json.Marshal(final.Result)
	if err != nil {
		t.Fatal(err)
	}
	return ds.ID, sess.ID, job.ID, b
}

// TestServeRestartRoundTrip is the acceptance path for durability:
// upload a dataset and run a job to completion against an
// fsstore-backed server, stop the server, start a brand-new Server on
// the same directory, and GET /v1/jobs/{id} returns the identical
// persisted GAResult (JSON-equal). The restored dataset and session
// answer too, listings include the old records, and new work on the
// restored session keeps running.
func TestServeRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// Life 1: run a job to completion, then shut everything down.
	reg1 := serve.NewRegistry(serve.RegistryConfig{SweepInterval: -1})
	srv1, err := serve.NewServer(reg1, serve.WithStore(mustFSStore(t, dir)))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	dsID, sessID, jobID, want := runJobToCompletion(t, serve.NewClient(ts1.URL, ts1.Client()))
	ts1.Close()
	reg1.Close()

	// Life 2: a fresh Server over the same directory.
	reg2 := serve.NewRegistry(serve.RegistryConfig{SweepInterval: -1})
	srv2, err := serve.NewServer(reg2, serve.WithStore(mustFSStore(t, dir)))
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(func() { ts2.Close(); reg2.Close() })
	client := serve.NewClient(ts2.URL, ts2.Client())

	ji, err := client.Job(ctx, jobID)
	if err != nil {
		t.Fatalf("restored job fetch: %v", err)
	}
	if ji.State != serve.JobDone || ji.Result == nil {
		t.Fatalf("restored job %+v, want done with a result", ji)
	}
	got, err := json.Marshal(ji.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("persisted result differs across restart:\nbefore %s\nafter  %s", want, got)
	}

	// The restored job's SSE stream is just the done event.
	sawGen := false
	final, err := client.StreamEvents(ctx, jobID, func(ev serve.Event) error {
		sawGen = sawGen || ev.Type == serve.EventGeneration
		return nil
	})
	if err != nil || final == nil || final.State != serve.JobDone {
		t.Fatalf("restored job stream = %+v, %v; want immediate done", final, err)
	}
	if sawGen {
		t.Error("restored job streamed generation events")
	}

	// Dataset and session survived with their ids.
	if _, err := client.Dataset(ctx, dsID); err != nil {
		t.Fatalf("restored dataset fetch: %v", err)
	}
	sess, err := client.Session(ctx, sessID)
	if err != nil {
		t.Fatalf("restored session fetch: %v", err)
	}
	if sess.DatasetID != dsID || sess.Backend != "native" {
		t.Fatalf("restored session %+v", sess)
	}

	// Listings see the restored records.
	jl, err := client.Jobs(ctx, serve.JobsQuery{SessionID: sessID})
	if err != nil || len(jl.Jobs) != 1 || jl.Jobs[0].ID != jobID {
		t.Fatalf("restored job listing = %+v, %v", jl, err)
	}
	dl, err := client.Datasets(ctx, "", 0)
	if err != nil || len(dl.Datasets) != 1 || dl.Datasets[0].ID != dsID {
		t.Fatalf("restored dataset listing = %+v, %v", dl, err)
	}

	// The restored session accepts new jobs, with a fresh id.
	job2, err := client.StartJob(ctx, sessID, serve.JobRequest{Config: testGAConfig(4)})
	if err != nil {
		t.Fatalf("job on restored session: %v", err)
	}
	if job2.ID == jobID {
		t.Fatalf("restored registry reused job id %s", jobID)
	}
	if _, err := client.StreamEvents(ctx, job2.ID, nil); err != nil {
		t.Fatal(err)
	}
}

// TestServeMemStoreSuite: the same upload→run→fetch→list workflow
// passes on the in-memory store — everything minus persistence: a
// second registry over a fresh MemStore has, by design, forgotten the
// job.
func TestServeMemStoreSuite(t *testing.T) {
	client, _ := newTestServer(t, serve.RegistryConfig{}, serve.WithStore(serve.NewMemStore()))
	ctx := context.Background()
	dsID, sessID, jobID, _ := runJobToCompletion(t, client)
	jl, err := client.Jobs(ctx, serve.JobsQuery{SessionID: sessID})
	if err != nil || len(jl.Jobs) != 1 || jl.Jobs[0].ID != jobID {
		t.Fatalf("job listing = %+v, %v", jl, err)
	}
	if _, err := client.Dataset(ctx, dsID); err != nil {
		t.Fatal(err)
	}

	// "Restart" over a fresh MemStore: nothing survives.
	client2, _ := newTestServer(t, serve.RegistryConfig{}, serve.WithStore(serve.NewMemStore()))
	if _, err := client2.Job(ctx, jobID); !errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("mem-store restart job fetch err = %v, want ErrNotFound", err)
	}
}

// TestRegistryRestoreInterrupted: a job record still in state
// "running" — the previous process crashed mid-run — is restored as
// "interrupted" with no result, and its rewritten record sticks.
func TestRegistryRestoreInterrupted(t *testing.T) {
	dir := t.TempDir()

	// Life 1: start a long job, then "crash" (no Close, so the final
	// state is never persisted).
	reg1 := serve.NewRegistry(serve.RegistryConfig{SweepInterval: -1})
	if err := reg1.UseStore(mustFSStore(t, dir)); err != nil {
		t.Fatal(err)
	}
	ds, err := reg1.AddDataset(serve.DatasetRequest{Format: serve.FormatPreset, Preset: 51, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := reg1.CreateSession(serve.SessionRequest{DatasetID: ds.ID, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	long := testGAConfig(7)
	long.StagnationLimit = 100000
	long.MaxGenerations = 100000
	job, err := reg1.StartJob(sess.ID, serve.JobRequest{Config: long})
	if err != nil {
		t.Fatal(err)
	}

	// Life 2 restores from the same directory while life 1 is still
	// "running" — exactly the on-disk state a crash leaves behind.
	reg2 := serve.NewRegistry(serve.RegistryConfig{SweepInterval: -1})
	if err := reg2.UseStore(mustFSStore(t, dir)); err != nil {
		t.Fatal(err)
	}
	// Now let life 1 die; its late final-state write must not clobber
	// the interrupted rewrite (the CAS version has moved on).
	reg1.Close()
	t.Cleanup(reg2.Close)

	ji, err := reg2.Job(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ji.State != serve.JobInterrupted {
		t.Fatalf("restored running job state = %q, want %q", ji.State, serve.JobInterrupted)
	}
	if ji.Result != nil || ji.Error == "" || ji.Report.Running {
		t.Fatalf("interrupted job document %+v", ji)
	}
	// Stopping an interrupted job is a no-op returning the document.
	if st, err := reg2.StopJob(job.ID); err != nil || st.State != serve.JobInterrupted {
		t.Fatalf("StopJob on interrupted = %+v, %v", st, err)
	}
	// A third life still sees "interrupted", proving the rewrite was
	// persisted and life 1's dying write lost the CAS race.
	reg3 := serve.NewRegistry(serve.RegistryConfig{SweepInterval: -1})
	if err := reg3.UseStore(mustFSStore(t, dir)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg3.Close)
	ji3, err := reg3.Job(job.ID)
	if err != nil || ji3.State != serve.JobInterrupted {
		t.Fatalf("third-life job = %+v, %v; want interrupted", ji3, err)
	}
}

// TestRegistryClosePersistsCanceled: a graceful shutdown (Close →
// drain → wait) persists each cancelled job's partial result before
// the store closes, so the next process serves "canceled" with the
// partial outcome — not "interrupted".
func TestRegistryClosePersistsCanceled(t *testing.T) {
	dir := t.TempDir()
	reg1 := serve.NewRegistry(serve.RegistryConfig{SweepInterval: -1})
	if err := reg1.UseStore(mustFSStore(t, dir)); err != nil {
		t.Fatal(err)
	}
	ds, err := reg1.AddDataset(serve.DatasetRequest{Format: serve.FormatPreset, Preset: 51, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := reg1.CreateSession(serve.SessionRequest{DatasetID: ds.ID, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	long := testGAConfig(7)
	long.StagnationLimit = 100000
	long.MaxGenerations = 100000
	job, err := reg1.StartJob(sess.ID, serve.JobRequest{Config: long})
	if err != nil {
		t.Fatal(err)
	}
	// Let it make progress so the partial result is nonempty.
	deadline := time.Now().Add(30 * time.Second)
	for {
		ji, err := reg1.Job(job.ID)
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
	reg1.Close() // drain: cancel, wait for the pump's final persist

	reg2 := serve.NewRegistry(serve.RegistryConfig{SweepInterval: -1})
	if err := reg2.UseStore(mustFSStore(t, dir)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg2.Close)
	ji, err := reg2.Job(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ji.State != serve.JobCanceled || ji.Result == nil || ji.Result.Generations < 2 {
		t.Fatalf("job after graceful shutdown = %+v, want canceled with a partial result", ji)
	}
}

// TestRegistryEvictionDeletesRecords: eviction means forgotten —
// sweeping an idle session deletes its job records from the store,
// and sweeping the dataset deletes its record, so neither comes back
// after a restart.
func TestRegistryEvictionDeletesRecords(t *testing.T) {
	dir := t.TempDir()
	reg := serve.NewRegistry(serve.RegistryConfig{
		SweepInterval: -1,
		SessionTTL:    time.Minute,
		DatasetTTL:    2 * time.Minute,
	})
	if err := reg.UseStore(mustFSStore(t, dir)); err != nil {
		t.Fatal(err)
	}
	ds, err := reg.AddDataset(smallDatasetRequest(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := reg.CreateSession(serve.SessionRequest{DatasetID: ds.ID, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	job, err := reg.StartJob(sess.ID, serve.JobRequest{Config: testGAConfig(5)})
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, reg, job.ID)
	now := time.Now()
	if es, ed := reg.Sweep(now.Add(5 * time.Minute)); es != 1 {
		t.Fatalf("Sweep evicted %d sessions, %d datasets; want the session", es, ed)
	}
	reg.Sweep(now.Add(10 * time.Minute)) // and now the dataset
	reg.Close()

	reg2 := serve.NewRegistry(serve.RegistryConfig{SweepInterval: -1})
	if err := reg2.UseStore(mustFSStore(t, dir)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg2.Close)
	if _, err := reg2.Job(job.ID); !errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("evicted job survived restart: %v", err)
	}
	if _, err := reg2.Dataset(ds.ID); !errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("evicted dataset survived restart: %v", err)
	}
}

// TestRegistryUseStoreRequiresFresh: installing a store on a registry
// that already has state is rejected.
func TestRegistryUseStoreRequiresFresh(t *testing.T) {
	reg := testRegistry(t, serve.RegistryConfig{})
	if _, err := reg.AddDataset(smallDatasetRequest(t, 9)); err != nil {
		t.Fatal(err)
	}
	if err := reg.UseStore(serve.NewMemStore()); !errors.Is(err, repro.ErrBadConfig) {
		t.Fatalf("UseStore on a used registry err = %v, want ErrBadConfig", err)
	}
}

// keepOpen is a Store whose Close keeps the records, so a second
// registry can restore exactly what the first one persisted.
type keepOpen struct{ serve.Store }

func (keepOpen) Close() error { return nil }

// TestServeRestoredRaceLateSubscriber: a race restored from the store
// streams like a finished live one — its persisted final leaderboard,
// then done with the race outcome.
func TestServeRestoredRaceLateSubscriber(t *testing.T) {
	st := serve.NewMemStore()
	client, reg := newTestServer(t, serve.RegistryConfig{}, serve.WithStore(keepOpen{st}))
	ctx := context.Background()
	sess := raceSetup(t, client)
	job, err := client.StartJob(ctx, sess.ID, serve.JobRequest{
		Config: testGAConfig(4),
		Race:   &repro.RaceSpec{Lanes: []repro.RaceLaneSpec{{Optimizer: "stpga"}}, SubsetSize: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.StreamEvents(ctx, job.ID, nil); err != nil {
		t.Fatal(err)
	}
	reg.Close() // waits for the final record

	client2, _ := newTestServer(t, serve.RegistryConfig{}, serve.WithStore(keepOpen{st}))
	checkFinishedRaceStream(t, client2, job.ID)
}
