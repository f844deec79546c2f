package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A sweep whose runs fail exits 1, and its CPU profile is still written:
// the failing run is the one whose profile is most wanted.
func TestFailedSweepWritesCPUProfile(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-quick", "-exp", "fig17", "-rundeadline", "1us", "-cpuprofile", prof}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "FAILED") {
		t.Fatalf("no failed runs reported:\n%s", stderr.String())
	}
	st, err := os.Stat(prof)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Fatal("CPU profile of the failing sweep is empty")
	}
}

// A negative -j is a usage error: exit 2 before any run, as abndphypo and
// abndpserve do.
func TestNegativeWorkersExit2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-exp", "tab1", "-j", "-1"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2\nstderr: %s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("a usage error printed tables:\n%s", stdout.String())
	}
}

// -remote renders on the service with the service's settings, so every
// other flag but -exp is a usage error: exit 2, naming the flag, before
// the server is contacted and with nothing on stdout.
func TestRemoteRejectsLocalFlags(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-quick", []string{"-quick"}},
		{"-svg", []string{"-svg", filepath.Join(dir, "svg")}},
		{"-j", []string{"-j", "2"}},
		{"-benchjson", []string{"-benchjson", filepath.Join(dir, "b.json")}},
		{"-progress", []string{"-progress"}},
		{"-pprof", []string{"-pprof", "127.0.0.1:0"}},
		{"-cpuprofile", []string{"-cpuprofile", filepath.Join(dir, "cpu.prof")}},
		{"-memprofile", []string{"-memprofile", filepath.Join(dir, "mem.prof")}},
		{"-rundeadline", []string{"-rundeadline", "1m"}},
		{"-check", []string{"-check"}},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			// Port 1 on the loopback answers nothing: a client that got
			// that far would fail with exit 1.
			args := append([]string{"-remote", "http://127.0.0.1:1", "-exp", "tab2"}, tc.args...)
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2\nstderr: %s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.flag) {
				t.Fatalf("the usage error does not name %s: %s", tc.flag, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("a usage error printed to stdout:\n%s", stdout.String())
			}
		})
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("rejected runs wrote %d files", len(entries))
	}
}
