package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"testing"
)

// fatalfChild is the positional argument that turns a copy of this test
// binary into the failing run TestFatalfReleasesOwned inspects.
const fatalfChild = "fatalf-child"

// TestFatalfReleasesOwned runs fatalf for real, in a child copy of the
// test binary: the child owns a temp dir and a stand-in server process
// (sleep), prints the pid and the dir, and fails. os.Exit skips
// deferred calls, so only fatalf's own release can stop the process
// and remove the dir; neither may outlive the child.
func TestFatalfReleasesOwned(t *testing.T) {
	sleep, err := exec.LookPath("sleep")
	if err != nil {
		t.Skip("no sleep binary to stand in for ldserve")
	}
	if flag.Arg(0) == fatalfChild {
		server := exec.Command(sleep, "60")
		if err := startOwned(server); err != nil {
			t.Fatal(err)
		}
		dir := tempDir("loadcheck-test-*")
		fmt.Printf("%d %s\n", server.Process.Pid, dir)
		fatalf("stand-in failure")
	}

	child := exec.Command(os.Args[0], "-test.run=^TestFatalfReleasesOwned$", fatalfChild)
	out, err := child.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("child exit = %v, want status 1 (stdout %q)", err, out)
	}
	var (
		pid int
		dir string
	)
	if _, err := fmt.Sscanf(string(out), "%d %s", &pid, &dir); err != nil {
		t.Fatalf("child stdout %q: %v", out, err)
	}

	if p, err := os.FindProcess(pid); err == nil && p.Signal(syscall.Signal(0)) == nil {
		p.Kill()
		t.Errorf("stand-in server %d still running after fatalf", pid)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		os.RemoveAll(dir)
		t.Errorf("temp dir %s survived fatalf (stat: %v)", dir, err)
	}
}
