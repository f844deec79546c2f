package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the tests from the repository root, where the gate reads
// BENCHMARK.json.
func TestMain(m *testing.M) {
	if err := os.Chdir("../.."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// nominal are plausible end-to-end values of one perfbench run.
var nominal = map[string]float64{
	"wall_s": 0.3, "jobs_per_s": 160, "p50_ms": 5, "p99_ms": 20,
	"alloc_mb": 30, "peak_rss_mb": 15, "setup_s": 0.01,
}

// side is the perfbench output of 10 runs per workload: each run's context
// line, then its result line with the nominal values scaled by scale
// (spread by ±1% around the median) and failed of 240 operations failed.
func side(workloads []string, scale map[string]float64, failed int) string {
	var b strings.Builder
	for _, w := range workloads {
		for i := 0; i < 10; i++ {
			fmt.Fprintf(&b, `{"context":{"workload":%q,"trace":false,"seed":%d}}`+"\n", w, 101+i)
			metrics := map[string]any{}
			for name, v := range nominal {
				if f, ok := scale[name]; ok {
					v *= f
				}
				metrics[name] = map[string]any{"value": v * (1 + 0.01*float64(i%3-1)), "unit": "-"}
			}
			res, _ := json.Marshal(map[string]any{
				"correct": failed == 0, "attempted": 240, "failed": failed, "metrics": metrics,
			})
			b.Write(append(res, '\n'))
		}
	}
	return b.String()
}

var both = []string{"matrix-quick", "serve-campaign"}

// gateOn writes base and head to files and runs the gate on them.
func gateOn(t *testing.T, base, head string) (int, string) {
	t.Helper()
	dir := t.TempDir()
	bp, hp := filepath.Join(dir, "base.jsonl"), filepath.Join(dir, "head.jsonl")
	if err := os.WriteFile(bp, []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(hp, []byte(head), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	code := run([]string{"-base", bp, "-head", hp}, &out, &errBuf)
	return code, out.String() + errBuf.String()
}

func TestEqualInputsPass(t *testing.T) {
	in := side(both, nil, 0)
	if code, out := gateOn(t, in, in); code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
}

// wantRegression runs the gate on a change whose metrics are the nominal
// parent's scaled by scale, and wants exit 1 with one regression reported
// per workload.
func wantRegression(t *testing.T, scale map[string]float64) {
	t.Helper()
	code, out := gateOn(t, side(both, nil, 0), side(both, scale, 0))
	if code != 1 {
		t.Errorf("%v: exit %d, want 1\n%s", scale, code, out)
	}
	if n := strings.Count(out, "REGRESSION"); n != 2 {
		t.Errorf("%v: %d regressions reported, want one per workload\n%s", scale, n, out)
	}
}

// The gate reads each metric's own bound and direction from
// BENCHMARK.json: alloc_mb may grow by 10% and wall_s by 25%.
func TestGateFailsOnSyntheticRegression(t *testing.T) {
	wantRegression(t, map[string]float64{"alloc_mb": 1.12})
	wantRegression(t, map[string]float64{"wall_s": 1.3})
}

// jobs_per_s is better higher: a 30% fall is past its 25% bound.
func TestThroughputCollapseFails(t *testing.T) {
	wantRegression(t, map[string]float64{"jobs_per_s": 0.7})
}

func TestChangeInsideBoundsPasses(t *testing.T) {
	head := side(both, map[string]float64{
		"alloc_mb": 1.09, "wall_s": 1.24, "p99_ms": 1.24, "jobs_per_s": 0.76, "peak_rss_mb": 0.5,
	}, 0)
	if code, out := gateOn(t, side(both, nil, 0), head); code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
}

func TestLargerFailureShareFails(t *testing.T) {
	if code, out := gateOn(t, side(both, nil, 0), side(both, nil, 1)); code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	if code, out := gateOn(t, side(both, nil, 1), side(both, nil, 1)); code != 0 {
		t.Fatalf("equal failure shares: exit %d, want 0\n%s", code, out)
	}
}

func TestUnjudgeableInputsExit2(t *testing.T) {
	good := side(both, nil, 0)
	traced := strings.Replace(good, `"trace":false`, `"trace":true`, 1)
	_, result, _ := strings.Cut(good, "\n")
	for _, tc := range []struct{ name, base, head string }{
		{"traced change run", good, traced},
		{"traced parent run", traced, good},
		{"result line without context", good, result},
		{"workload without parent runs", side(both[:1], nil, 0), good},
		{"workload without change runs", good, side(both[:1], nil, 0)},
		{"no runs", "", ""},
	} {
		if code, out := gateOn(t, tc.base, tc.head); code != 2 {
			t.Errorf("%s: exit %d, want 2\n%s", tc.name, code, out)
		}
	}
}

// -base and -head are the only flags, and both are required.
func TestBadFlagCombos(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-base", "x.jsonl"},
		{"-head", "x.jsonl"},
		{"-base", "x.jsonl", "-head", "y.jsonl", "-threshold", "0.5"},
		{"-dir", "."},
		{"-svg", "t.svg"},
		{"-base", "missing.jsonl", "-head", "missing.jsonl"},
	} {
		var out, errBuf bytes.Buffer
		if code := run(args, &out, &errBuf); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
	}
}
