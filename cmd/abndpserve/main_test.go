package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// Bad flag values exit 2 before the service starts; a trace directory that
// cannot be made exits 1, like every other failure of the service.
func TestExitCodes(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"negative -j", []string{"-j", "-1"}, 2},
		{"zero -queue", []string{"-queue", "0"}, 2},
		{"bad -log", []string{"-log", "xml"}, 2},
		{"bad -log-level", []string{"-log-level", "loud"}, 2},
		{"unknown flag", []string{"-bogus"}, 2},
		{"trace dir under a file", []string{"-trace-dir", filepath.Join(file, "traces")}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			if got := run(tc.args, &stderr); got != tc.want {
				t.Fatalf("run(%q) = %d, want %d\nstderr: %s", tc.args, got, tc.want, stderr.String())
			}
		})
	}
}
