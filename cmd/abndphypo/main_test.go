package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// Usage errors exit 2, before any spec is read; a spec that cannot be
// loaded exits 1, like every other failure of a campaign.
func TestExitCodes(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"negative -j", []string{"-spec", missing, "-j", "-1"}, 2},
		{"no -spec", []string{"-quick"}, 2},
		{"unknown flag", []string{"-bogus"}, 2},
		{"unreadable spec", []string{"-spec", missing}, 1},
		{"policies", []string{"-policies"}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("run(%q) = %d, want %d\nstderr: %s", tc.args, got, tc.want, stderr.String())
			}
			if tc.want == 0 && !strings.Contains(stdout.String(), "lowestdist") {
				t.Fatalf("-policies printed %q", stdout.String())
			}
		})
	}
}
