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
