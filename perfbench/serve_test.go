package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestServeMoreClientsThanJobSlots runs serve-51 with more clients than
// ldserve's default of 4 running jobs per session, as on a host with
// more than 4 CPUs: every client must run on its own session, so no
// submit is refused.
func TestServeMoreClientsThanJobSlots(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots ldserve")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ldserve")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/ldserve")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build ldserve: %v", err)
	}
	cfg := config{workload: "serve-51", seed: 3, seconds: 1.5, ldserve: bin, out: dir, nproc: 6}
	rep, err := runServe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", rep.failed, rep.attempted, rep.checksFailed)
	}
	if rep.metrics["jobs_per_s"] <= 0 || rep.metrics["upload_p50_ms"] <= 0 {
		t.Fatalf("no jobs or uploads measured: %v", rep.metrics)
	}
}
