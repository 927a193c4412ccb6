// Command servecheck is the end-to-end integration check of the
// durable serving layer, driven against a real ldserve binary. It
// proves the restart round-trip the serve package promises:
//
//  1. boot ldserve with a temp -data-dir and an API key,
//  2. upload a dataset, open a session, run a GA job to completion
//     through the typed Go client (SSE stream included),
//  3. stop the server with SIGTERM (graceful drain),
//  4. boot a brand-new ldserve process on the same -data-dir,
//  5. fetch GET /v1/jobs/{id} and verify the restored status document
//     is JSON-identical to the done event observed before the restart
//     (state, report and result alike: a finished job's status is
//     fixed when its run ends) — and that auth survived too (a
//     keyless request still gets 401).
//
// CI builds ldserve and runs
//
//	go run ./tools/servecheck -ldserve bin/ldserve
//
// Any failure stops the server, removes the temp data dir and exits
// nonzero with a diagnostic.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"repro"
	"repro/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "servecheck: FAIL: %v\n", err)
		os.Exit(1)
	}
}

// run performs the check. Its deferred cleanup stops whichever server
// is still running and removes the temp data dir on every return, so a
// failure leaves no ldserve process holding the caller's stderr open.
func run() (err error) {
	var (
		bin     = flag.String("ldserve", "bin/ldserve", "path to the ldserve binary")
		dataDir = flag.String("data-dir", "", "data directory (default: a fresh temp dir)")
		apiKey  = flag.String("api-key", "servecheck-secret", "API key to run the server with")
	)
	flag.Parse()

	if *dataDir == "" {
		dir, err := os.MkdirTemp("", "servecheck-*")
		if err != nil {
			return fmt.Errorf("temp dir: %v", err)
		}
		defer os.RemoveAll(dir)
		*dataDir = dir
	}
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	base := "http://" + addr
	ctx := context.Background()
	client := serve.NewClient(base, nil, serve.WithAPIKey(*apiKey))

	var proc *exec.Cmd // the server running now, if any
	defer func() {
		if stopErr := stopServer(proc); err == nil {
			err = stopErr
		}
	}()

	// Life 1: upload → session → job → done.
	if proc, err = startServer(*bin, addr, *dataDir, *apiKey); err != nil {
		return err
	}
	ds, err := client.CreateDataset(ctx, serve.DatasetRequest{Format: serve.FormatPreset, Preset: 51, Seed: 1})
	if err != nil {
		return fmt.Errorf("upload: %v", err)
	}
	sess, err := client.CreateSession(ctx, serve.SessionRequest{DatasetID: ds.ID})
	if err != nil {
		return fmt.Errorf("session: %v", err)
	}
	job, err := client.StartJob(ctx, sess.ID, serve.JobRequest{Config: smallConfig()})
	if err != nil {
		return fmt.Errorf("job: %v", err)
	}
	generations := 0
	final, err := client.StreamEvents(ctx, job.ID, func(ev serve.Event) error {
		if ev.Type == serve.EventGeneration {
			generations++
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("stream: %v", err)
	}
	if final == nil || final.State != serve.JobDone || final.Result == nil {
		return fmt.Errorf("job did not finish: %+v", final)
	}
	before, err := json.Marshal(final)
	if err != nil {
		return fmt.Errorf("marshal: %v", err)
	}
	fmt.Printf("servecheck: job %s done after %d generations (%d streamed), done document %d bytes\n",
		job.ID, final.Result.Generations, generations, len(before))
	err, proc = stopServer(proc), nil
	if err != nil {
		return err
	}

	// Life 2: the same data dir, a brand-new process.
	if proc, err = startServer(*bin, addr, *dataDir, *apiKey); err != nil {
		return err
	}

	// Auth survived the restart: a keyless request is rejected.
	if _, err := serve.NewClient(base, nil).Job(ctx, job.ID); !errors.Is(err, serve.ErrUnauthorized) {
		return fmt.Errorf("keyless request after restart: err = %v, want unauthorized", err)
	}
	ji, err := client.Job(ctx, job.ID)
	if err != nil {
		return fmt.Errorf("restored job fetch: %v", err)
	}
	if ji.State != serve.JobDone || ji.Result == nil {
		return fmt.Errorf("restored job = %+v, want done with result", ji)
	}
	after, err := json.Marshal(ji)
	if err != nil {
		return fmt.Errorf("marshal: %v", err)
	}
	if !bytes.Equal(before, after) {
		return fmt.Errorf("job document changed across restart:\ndone   %s\nstored %s", before, after)
	}
	// The restored session is live: listings agree and new work runs.
	jl, err := client.Jobs(ctx, serve.JobsQuery{SessionID: sess.ID})
	if err != nil || len(jl.Jobs) != 1 || jl.Jobs[0].ID != job.ID {
		return fmt.Errorf("restored listing = %+v, %v", jl, err)
	}
	job2, err := client.StartJob(ctx, sess.ID, serve.JobRequest{Config: smallConfig()})
	if err != nil {
		return fmt.Errorf("job on restored session: %v", err)
	}
	if _, err := client.StreamEvents(ctx, job2.ID, nil); err != nil {
		return fmt.Errorf("second job stream: %v", err)
	}
	fmt.Println("servecheck: restart round-trip OK — restored job document is JSON-identical to done, auth enforced, session live")
	return nil
}

// smallConfig is a GA configuration that finishes in well under a
// second on the 51-SNP preset.
func smallConfig() repro.GAConfig {
	return repro.GAConfig{
		MinSize: 2, MaxSize: 3, PopulationSize: 24,
		PairsPerGeneration: 8, StagnationLimit: 12,
		ImmigrantStagnation: 5, MaxGenerations: 200, Seed: 11,
	}
}

// freeAddr reserves a loopback port for the server.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserve port: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// startServer boots ldserve and waits for it to accept connections.
func startServer(bin, addr, dataDir, apiKey string) (*exec.Cmd, error) {
	abs, err := filepath.Abs(bin)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(abs,
		"-addr", addr,
		"-data-dir", dataDir,
		"-api-key", apiKey,
		"-drain", "2s",
		"-shutdown-timeout", "5s",
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %v", bin, err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
			return cmd, nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	cmd.Process.Kill()
	cmd.Wait()
	return nil, fmt.Errorf("server on %s never came up", addr)
}

// stopServer sends SIGTERM (the graceful drain path) and waits,
// killing the server if it ignores the signal. A nil cmd is a no-op.
func stopServer(cmd *exec.Cmd) error {
	if cmd == nil {
		return nil
	}
	cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
		return nil
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		<-done
		return errors.New("server ignored SIGTERM for 30s")
	}
}
