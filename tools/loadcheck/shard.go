package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"repro"
	"repro/serve"
)

// wideStudy generates the sharding workload: a study wide enough that
// a sweep over it takes long enough to be killed mid-run, uploaded as
// a multi-megabyte table (the "large upload" path).
func wideStudy(numSNPs int) string {
	third := numSNPs / 3
	d, err := repro.GenerateDataset(repro.GeneratorConfig{
		NumSNPs: numSNPs, NumAffected: 60, NumUnaffected: 60, NumUnknown: 30,
		MissingRate:       0.01,
		RiskHaplotypeFreq: 0.3,
		Disease: repro.DiseaseModel{
			CausalSites: []int{third, 2 * third}, RiskAlleles: []uint8{1, 1},
			BaseRisk: 0.15, HaplotypeEffect: 0.6,
		},
		Seed: 4242,
	})
	if err != nil {
		fatalf("generate wide study: %v", err)
	}
	var buf bytes.Buffer
	if err := repro.WriteDataset(&buf, d); err != nil {
		fatalf("serialize wide study: %v", err)
	}
	return buf.String()
}

// runShardScenario is the kill-and-restart acceptance drill for
// sharded sweeps: boot a durable, spill-backed ldserve, upload a wide
// study, start a checkpointed sweep job on a sharded session, SIGKILL
// the server mid-sweep (no drain, no final persist — the record stays
// "running"), restart over the same directories, and require that the
// job resumes from its checkpoint: same id, shards restored instead of
// recomputed, strictly fewer windows evaluated in life 2, and a final
// best window. Any violation exits nonzero.
func runShardScenario(bin, apiKey string, numSNPs int) {
	dataDir := tempDir("loadcheck-shard-*")
	spillDir := filepath.Join(dataDir, "spill")
	ctx := context.Background()

	addr := freeAddr()
	proc := startServer(bin, addr, filepath.Join(dataDir, "records"), apiKey, "-spill-dir", spillDir)
	client := serve.NewClient("http://"+addr, http.DefaultClient, serve.WithAPIKey(apiKey))

	table := wideStudy(numSNPs)
	ds, err := client.CreateDataset(ctx, serve.DatasetRequest{Format: serve.FormatTable, Content: table})
	if err != nil {
		fatalf("shard scenario upload: %v", err)
	}
	sess, err := client.CreateSession(ctx, serve.SessionRequest{DatasetID: ds.ID, ShardSize: 128})
	if err != nil {
		fatalf("shard scenario session: %v", err)
	}
	job, err := client.StartJob(ctx, sess.ID, serve.JobRequest{Sweep: &serve.SweepSpec{Size: 4}})
	if err != nil {
		fatalf("shard scenario sweep start: %v", err)
	}
	fmt.Printf("loadcheck: shard scenario — %d-SNP upload (%d KiB), sweep %s on session %s\n",
		numSNPs, len(table)>>10, job.ID, sess.ID)

	// Wait for at least two checkpointed shards, then pull the plug.
	deadline := time.Now().Add(60 * time.Second)
	var killed serve.JobInfo
	for {
		ji, err := client.Job(ctx, job.ID)
		if err != nil {
			fatalf("shard scenario poll: %v", err)
		}
		if ji.State != serve.JobRunning {
			fatalf("sweep finished before the kill (state %s) — raise -shard-snps", ji.State)
		}
		if ji.Shards != nil && ji.Shards.Done >= 2 {
			killed = ji
			break
		}
		if time.Now().After(deadline) {
			fatalf("sweep made no progress before the kill deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	killServer(proc)
	fmt.Printf("loadcheck: shard scenario — SIGKILL after %d/%d shards\n",
		killed.Shards.Done, killed.Shards.Total)

	// The spill directory must hold the write-once shard files the
	// restarted backend will reuse.
	spilled, err := filepath.Glob(filepath.Join(spillDir, "ds-*", "shard-*.bin"))
	if err != nil || len(spilled) == 0 {
		fatalf("no spilled shard files under %s (err %v)", spillDir, err)
	}

	// Life 2: same directories, fresh port. Restore must relaunch the
	// job under its original id.
	addr2 := freeAddr()
	proc2 := startServer(bin, addr2, filepath.Join(dataDir, "records"), apiKey, "-spill-dir", spillDir)
	defer stopServer(proc2)
	client2 := serve.NewClient("http://"+addr2, http.DefaultClient, serve.WithAPIKey(apiKey))

	deadline = time.Now().Add(120 * time.Second)
	var final serve.JobInfo
	for {
		ji, err := client2.Job(ctx, job.ID)
		if err != nil {
			fatalf("shard scenario life-2 poll: %v", err)
		}
		if ji.State != serve.JobRunning {
			final = ji
			break
		}
		if time.Now().After(deadline) {
			fatalf("resumed sweep never finished")
		}
		time.Sleep(50 * time.Millisecond)
	}
	sw := final.Sweep
	switch {
	case final.State != serve.JobDone || sw == nil:
		fatalf("resumed sweep = state %s, sweep %v; want done with an outcome", final.State, sw)
	case sw.Resumed < 2:
		fatalf("life 2 resumed %d shards, want >= 2 (the kill happened after %d)", sw.Resumed, killed.Shards.Done)
	case sw.Done != sw.Shards:
		fatalf("resumed sweep completed %d of %d shards", sw.Done, sw.Shards)
	case sw.Evaluated >= int64(sw.TotalWindows):
		fatalf("life 2 evaluated %d of %d windows — the checkpoint bought nothing", sw.Evaluated, sw.TotalWindows)
	case len(sw.Best.Best) == 0:
		fatalf("resumed sweep found no best window: %+v", sw)
	}
	fmt.Printf("loadcheck: shard scenario OK — resumed %d shards, evaluated %d of %d windows in life 2, best %v (fitness %.3f)\n",
		sw.Resumed, sw.Evaluated, sw.TotalWindows, sw.Best.Best, sw.Best.Fitness)
}
