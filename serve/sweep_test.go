package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/shard"
	"repro/serve"
)

// TestServeSweepEndToEnd drives a sweep job through the full HTTP
// surface: upload, sharded session, POST a sweep job, stream it to
// completion, and read the sweep outcome from the job document.
func TestServeSweepEndToEnd(t *testing.T) {
	client, _ := newTestServer(t, serve.RegistryConfig{})
	ctx := context.Background()
	ds, err := client.CreateDataset(ctx, serve.DatasetRequest{Format: serve.FormatPreset, Preset: 51, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := client.CreateSession(ctx, serve.SessionRequest{DatasetID: ds.ID, ShardSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sess.ShardSize != 8 {
		t.Fatalf("session shard_size = %d, want 8", sess.ShardSize)
	}
	job, err := client.StartJob(ctx, sess.ID, serve.JobRequest{Sweep: &serve.SweepSpec{Size: 2}})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.StreamEvents(ctx, job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final == nil || final.State != serve.JobDone {
		t.Fatalf("sweep job final = %+v, want done", final)
	}
	if final.Result != nil {
		t.Errorf("sweep job carries a GAResult: %+v", final.Result)
	}
	sw := final.Sweep
	if sw == nil {
		t.Fatal("finished sweep job has no Sweep outcome")
	}
	// 51 SNPs in shards of 8 → 7 shards; width-2 windows anchor at
	// 0..49 → 50 windows, none resumed on a first life.
	if sw.Shards != 7 || sw.Done != 7 || sw.Resumed != 0 {
		t.Fatalf("sweep shards = %d done %d resumed %d, want 7/7/0", sw.Shards, sw.Done, sw.Resumed)
	}
	if sw.TotalWindows != 50 || sw.Evaluated != 50 {
		t.Fatalf("sweep windows = %d evaluated %d, want 50/50", sw.TotalWindows, sw.Evaluated)
	}
	if len(sw.Best.Best) != 2 || len(sw.PerShard) != 7 {
		t.Fatalf("sweep best %+v per-shard %d entries", sw.Best, len(sw.PerShard))
	}
	if final.Shards == nil || final.Shards.Done != 7 || final.Shards.Total != 7 {
		t.Fatalf("job shard progress = %+v, want 7/7", final.Shards)
	}
	// The best window must agree with the monolithic evaluator: score
	// it directly and compare bit-for-bit.
	d, err := repro.Paper51Dataset(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := repro.NewBackend(d, repro.T1, repro.BackendNative, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	want, err := eng.Evaluate(sw.Best.Best)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Best.Fitness != want {
		t.Fatalf("sweep best fitness %v, monolithic evaluator says %v", sw.Best.Fitness, want)
	}
}

// TestRegistrySweepValidation: the ways a sweep request can be wrong,
// each answered with ErrBadConfig (HTTP 400) — plus the job limit,
// one slot count shared by sweeps, GA runs and races in both
// directions.
func TestRegistrySweepValidation(t *testing.T) {
	reg := testRegistry(t, serve.RegistryConfig{MaxJobsPerSession: 1})
	ds, err := reg.AddDataset(smallDatasetRequest(t, 9))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := reg.CreateSession(serve.SessionRequest{DatasetID: ds.ID, ShardSize: -1}); !errors.Is(err, repro.ErrBadConfig) {
		t.Fatalf("negative shard_size err = %v, want ErrBadConfig", err)
	}
	if _, err := reg.CreateSession(serve.SessionRequest{DatasetID: ds.ID, Backend: "master", ShardSize: 4}); !errors.Is(err, repro.ErrBadConfig) {
		t.Fatalf("non-native sharded session err = %v, want ErrBadConfig", err)
	}

	plain, err := reg.CreateSession(serve.SessionRequest{DatasetID: ds.ID})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.StartJob(plain.ID, serve.JobRequest{Sweep: &serve.SweepSpec{}}); !errors.Is(err, repro.ErrBadConfig) {
		t.Fatalf("sweep on unsharded session err = %v, want ErrBadConfig", err)
	}

	sharded, err := reg.CreateSession(serve.SessionRequest{DatasetID: ds.ID, ShardSize: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.StartJob(sharded.ID, serve.JobRequest{Sweep: &serve.SweepSpec{}, Islands: 2}); !errors.Is(err, repro.ErrBadConfig) {
		t.Fatalf("sweep with islands err = %v, want ErrBadConfig", err)
	}
	if _, err := reg.StartJob(sharded.ID, serve.JobRequest{Sweep: &serve.SweepSpec{Size: 21}}); !errors.Is(err, repro.ErrBadConfig) {
		t.Fatalf("sweep width 21 err = %v, want ErrBadConfig", err)
	}

	// A running GA job saturates the limit of 1; the sweep must see it.
	long := testGAConfig(7)
	long.StagnationLimit = 100000
	long.MaxGenerations = 100000
	job, err := reg.StartJob(sharded.ID, serve.JobRequest{Config: long})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.StartJob(sharded.ID, serve.JobRequest{Sweep: &serve.SweepSpec{}}); !errors.Is(err, repro.ErrSessionBusy) {
		t.Fatalf("sweep over the job limit err = %v, want ErrSessionBusy", err)
	}
	if _, err := reg.StopJob(job.ID); err != nil {
		t.Fatal(err)
	}

	// The other way round: a running sweep holds the only slot against
	// every kind, and the session reports one active job. Width-8
	// windows over the 249-SNP preset keep the sweep busy for a while.
	wide, err := reg.AddDataset(serve.DatasetRequest{Format: serve.FormatPreset, Preset: 249, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wideSess, err := reg.CreateSession(serve.SessionRequest{DatasetID: wide.ID, ShardSize: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := reg.StartJob(wideSess.ID, serve.JobRequest{Sweep: &serve.SweepSpec{Size: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if ji, err := reg.Job(sweep.ID); err != nil || ji.State != serve.JobRunning {
		t.Fatalf("sweep = %+v, %v; want running", ji, err)
	}
	if _, err := reg.StartJob(wideSess.ID, serve.JobRequest{Config: long}); !errors.Is(err, repro.ErrSessionBusy) {
		t.Fatalf("GA start beside a running sweep err = %v, want ErrSessionBusy", err)
	}
	race := &repro.RaceSpec{Lanes: []repro.RaceLaneSpec{{Optimizer: "ga"}}}
	if _, err := reg.StartJob(wideSess.ID, serve.JobRequest{Config: long, Race: race}); !errors.Is(err, repro.ErrSessionBusy) {
		t.Fatalf("race start beside a running sweep err = %v, want ErrSessionBusy", err)
	}
	if si, err := reg.Session(wideSess.ID); err != nil || si.ActiveJobs != 1 {
		t.Fatalf("session = %+v, %v; want 1 active job", si, err)
	}
	if _, err := reg.StopJob(sweep.ID); err != nil {
		t.Fatal(err)
	}
	ga, err := reg.StartJob(wideSess.ID, serve.JobRequest{Config: long})
	if err != nil {
		t.Fatalf("GA start after stopping the sweep: %v", err)
	}
	if _, err := reg.StopJob(ga.ID); err != nil {
		t.Fatal(err)
	}
}

// jobDoc mirrors the registry's stored job document (status plus the
// original request) for tests that manipulate the store directly.
type jobDoc struct {
	serve.JobInfo
	Request *serve.JobRequest `json:"request,omitempty"`
}

// TestRegistrySweepResumeAfterCrash is the restartable-sweep
// acceptance test. A clean run establishes the reference outcome; then
// the store is rewound to exactly what a crash leaves behind — the job
// record still in state "running" plus a checkpoint covering the first
// two shards — and a fresh registry over the same directory must
// resume the job under its original id, evaluate strictly fewer
// windows than the clean run, and land the identical final result.
func TestRegistrySweepResumeAfterCrash(t *testing.T) {
	dir := t.TempDir()

	// Life 0 (reference): run the sweep to completion.
	reg1 := serve.NewRegistry(serve.RegistryConfig{SweepInterval: -1})
	if err := reg1.UseStore(mustFSStore(t, dir)); err != nil {
		t.Fatal(err)
	}
	ds, err := reg1.AddDataset(smallDatasetRequest(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := reg1.CreateSession(serve.SessionRequest{DatasetID: ds.ID, ShardSize: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	job, err := reg1.StartJob(sess.ID, serve.JobRequest{Sweep: &serve.SweepSpec{Size: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ref := waitJobDone(t, reg1, job.ID)
	if ref.State != serve.JobDone || ref.Sweep == nil {
		t.Fatalf("reference sweep = %+v, want done with an outcome", ref)
	}
	// 14 SNPs in shards of 4 → 4 shards owning 4+4+4+1 = 13 windows.
	if ref.Sweep.Done != 4 || ref.Sweep.Evaluated != 13 {
		t.Fatalf("reference sweep done %d evaluated %d, want 4/13", ref.Sweep.Done, ref.Sweep.Evaluated)
	}
	reg1.Close()

	// Simulate the crash: put the job record back in state "running"
	// (keeping its request) and file a checkpoint that covers the first
	// two shards — the on-disk state of a server killed mid-sweep.
	st := mustFSStore(t, dir)
	rec, err := st.Get(serve.KindJob, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	var doc jobDoc
	if err := json.Unmarshal(rec.Data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Request == nil || doc.Request.Sweep == nil {
		t.Fatalf("stored job record lost its sweep request: %s", rec.Data)
	}
	doc.State = serve.JobRunning
	doc.Error = ""
	doc.Result = nil
	doc.Sweep = nil
	doc.Shards = nil
	doc.Report = repro.JobReport{Running: true}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(serve.KindJob, serve.Record{ID: job.ID, Version: rec.Version, Data: b}); err != nil {
		t.Fatal(err)
	}
	cp := &shard.Checkpoint{
		Parent:    strings.TrimPrefix(ds.ID, "ds-"),
		NumSNPs:   ds.NumSNPs,
		Rows:      ds.NumIndividuals,
		ShardSize: 4,
		Size:      2,
		Stride:    1,
		Completed: ref.Sweep.PerShard[:2],
	}
	cpJSON, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(serve.KindCheckpoint, serve.Record{ID: job.ID, Data: cpJSON}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Life 2: restore resumes the job under its original id instead of
	// marking it interrupted.
	reg2 := serve.NewRegistry(serve.RegistryConfig{SweepInterval: -1})
	if err := reg2.UseStore(mustFSStore(t, dir)); err != nil {
		t.Fatal(err)
	}
	got := waitJobDone(t, reg2, job.ID)
	if got.State != serve.JobDone || got.Sweep == nil {
		t.Fatalf("resumed sweep = %+v, want done with an outcome", got)
	}
	if got.Sweep.Resumed != 2 {
		t.Fatalf("life 2 resumed %d shards, want 2", got.Sweep.Resumed)
	}
	skipped := int64(ref.Sweep.PerShard[0].Windows + ref.Sweep.PerShard[1].Windows)
	if got.Sweep.Evaluated >= ref.Sweep.Evaluated || got.Sweep.Evaluated != ref.Sweep.Evaluated-skipped {
		t.Fatalf("life 2 evaluated %d windows, want %d (clean run did %d)",
			got.Sweep.Evaluated, ref.Sweep.Evaluated-skipped, ref.Sweep.Evaluated)
	}
	if !reflect.DeepEqual(got.Sweep.Best, ref.Sweep.Best) {
		t.Fatalf("resumed best %+v differs from clean run %+v", got.Sweep.Best, ref.Sweep.Best)
	}
	if !reflect.DeepEqual(got.Sweep.PerShard, ref.Sweep.PerShard) {
		t.Fatalf("resumed per-shard results differ:\n got %+v\nwant %+v", got.Sweep.PerShard, ref.Sweep.PerShard)
	}
	reg2.Close()

	// The finished sweep deleted its checkpoint — terminal jobs never
	// resume — and a third life serves the persisted outcome.
	st3 := mustFSStore(t, dir)
	if _, err := st3.Get(serve.KindCheckpoint, job.ID); !errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("checkpoint of a finished sweep survived: %v", err)
	}
	st3.Close()
	reg3 := serve.NewRegistry(serve.RegistryConfig{SweepInterval: -1})
	if err := reg3.UseStore(mustFSStore(t, dir)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg3.Close)
	ji3, err := reg3.Job(job.ID)
	if err != nil || ji3.State != serve.JobDone || ji3.Sweep == nil {
		t.Fatalf("third-life job = %+v, %v; want the persisted sweep outcome", ji3, err)
	}
	if !reflect.DeepEqual(ji3.Sweep.Best, ref.Sweep.Best) {
		t.Fatalf("persisted best %+v differs from clean run %+v", ji3.Sweep.Best, ref.Sweep.Best)
	}
}
