package hypo

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"abndp/internal/apps"
	"abndp/internal/bench"
	"abndp/internal/config"
	"abndp/internal/ndp"
)

// fakeExec synthesizes results as a pure function of the run spec, so
// campaign aggregation and verdict logic are testable without simulating.
type fakeExec struct {
	run func(s bench.Spec) (*ndp.Result, error)
}

func (f *fakeExec) RunOne(_ context.Context, s bench.Spec, _ bool) (*ndp.Result, error) {
	return f.run(s)
}

func (f *fakeExec) DefaultParams(string) apps.Params {
	return apps.Params{Scale: 4, Degree: 2, Iters: 1}
}

func (f *fakeExec) Workers() int { return 4 }

func mustDesign(t *testing.T, s string) config.Design {
	t.Helper()
	d, err := config.ParseDesign(s)
	if err != nil {
		t.Fatalf("ParseDesign(%q): %v", s, err)
	}
	return d
}

// secondsExec returns an executor whose "seconds" metric is
// base(design) * seedFactor(seed) — a multiplicative per-seed effect, the
// shape the paired relative statistic is built for.
func secondsExec(t *testing.T, base map[string]float64, seedFactor func(int64) float64) *fakeExec {
	t.Helper()
	byDesign := map[config.Design]float64{}
	for name, v := range base {
		byDesign[mustDesign(t, name)] = v
	}
	return &fakeExec{run: func(s bench.Spec) (*ndp.Result, error) {
		b, ok := byDesign[s.Design]
		if !ok {
			return nil, fmt.Errorf("no base for design %v", s.Design)
		}
		sec := b * seedFactor(s.Config.Seed)
		return &ndp.Result{Seconds: sec, Makespan: int64(sec * 1e9), Tasks: 10, Steps: 1, InterHops: 100}, nil
	}}
}

func specTwoArms(seeds []int64) *Spec {
	return &Spec{
		Name:     "t",
		Workload: Workload{App: "pr", Scale: 5},
		Arms: []Arm{
			{Name: "base", Design: "Sm"},
			{Name: "cand", Design: "O"},
		},
		Seeds: seeds,
		Verdict: &Verdict{
			Baseline: "base", Candidate: "cand",
			Metric: "seconds", Direction: "lower", MinEffect: 0.05,
		},
	}
}

func TestLoadRejectsBadSpecs(t *testing.T) {
	good := `{"name":"x","workload":{"app":"pr"},"arms":[{"name":"a","design":"Sm"}],"seeds":[1]}`
	if _, err := Load(strings.NewReader(good)); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	cases := map[string]string{
		"unknown field":      `{"name":"x","workload":{"app":"pr"},"arms":[{"name":"a","design":"Sm"}],"seeds":[1],"bogus":1}`,
		"no name":            `{"workload":{"app":"pr"},"arms":[{"name":"a","design":"Sm"}],"seeds":[1]}`,
		"no app":             `{"name":"x","arms":[{"name":"a","design":"Sm"}],"seeds":[1]}`,
		"unknown app":        `{"name":"x","workload":{"app":"nope"},"arms":[{"name":"a","design":"Sm"}],"seeds":[1]}`,
		"no arms":            `{"name":"x","workload":{"app":"pr"},"seeds":[1]}`,
		"no seeds":           `{"name":"x","workload":{"app":"pr"},"arms":[{"name":"a","design":"Sm"}]}`,
		"dup seed":           `{"name":"x","workload":{"app":"pr"},"arms":[{"name":"a","design":"Sm"}],"seeds":[1,1]}`,
		"dup arm name":       `{"name":"x","workload":{"app":"pr"},"arms":[{"name":"a","design":"Sm"},{"name":"a","design":"O"}],"seeds":[1]}`,
		"bad design":         `{"name":"x","workload":{"app":"pr"},"arms":[{"name":"a","design":"ZZ"}],"seeds":[1]}`,
		"bad config field":   `{"name":"x","workload":{"app":"pr"},"arms":[{"name":"a","design":"Sm","config":{"NoSuchField":1}}],"seeds":[1]}`,
		"empty grid values":  `{"name":"x","workload":{"app":"pr"},"arms":[{"name":"a","design":"Sm","grid":{"HybridAlpha":[]}}],"seeds":[1]}`,
		"bad grid field":     `{"name":"x","workload":{"app":"pr"},"arms":[{"name":"a","design":"Sm","grid":{"NoSuchField":[1]}}],"seeds":[1]}`,
		"dup level":          `{"name":"x","workload":{"app":"pr"},"arms":[{"name":"a","design":"Sm"}],"seeds":[1],"load_levels":[{"name":"l"},{"name":"l"}]}`,
		"bad pareto metric":  `{"name":"x","workload":{"app":"pr"},"arms":[{"name":"a","design":"Sm"}],"seeds":[1],"pareto":{"x":"nope","y":"seconds"}}`,
		"verdict bad arm":    `{"name":"x","workload":{"app":"pr"},"arms":[{"name":"a","design":"Sm"}],"seeds":[1],"verdict":{"baseline":"a","candidate":"b","metric":"seconds"}}`,
		"verdict bad metric": `{"name":"x","workload":{"app":"pr"},"arms":[{"name":"a","design":"Sm"}],"seeds":[1],"verdict":{"baseline":"a","candidate":"a","metric":"nope"}}`,
		"verdict bad dir":    `{"name":"x","workload":{"app":"pr"},"arms":[{"name":"a","design":"Sm"}],"seeds":[1],"verdict":{"baseline":"a","candidate":"a","metric":"seconds","direction":"sideways"}}`,
		"min_effect >= 1":    `{"name":"x","workload":{"app":"pr"},"arms":[{"name":"a","design":"Sm"}],"seeds":[1],"verdict":{"baseline":"a","candidate":"a","metric":"seconds","min_effect":1.5}}`,
		"verdict bad level":  `{"name":"x","workload":{"app":"pr"},"arms":[{"name":"a","design":"Sm"}],"seeds":[1],"load_levels":[{"name":"l"}],"verdict":{"baseline":"a","candidate":"a","metric":"seconds","level":"nope"}}`,
		"unknown policy":     `{"name":"x","workload":{"app":"pr"},"arms":[{"name":"a","design":"Sm","config":{"SchedPolicy":"nope"}}],"seeds":[1]}`,
		"param out of range": `{"name":"x","workload":{"app":"pr"},"arms":[{"name":"a","design":"Sm","config":{"SchedPolicy":"loadonly","PolicyParams":{"floor":-5}}}],"seeds":[1]}`,
		"invalid cell cfg":   `{"name":"x","workload":{"app":"pr"},"arms":[{"name":"a","design":"Sm","grid":{"CoresPerUnit":[0]}}],"seeds":[1]}`,
		// Regression: any L1 geometry used to load, and NewL1 sized its
		// tag storage from it (about 9 GB for a billion ways).
		"huge L1 ways":     `{"name":"x","workload":{"app":"pr"},"arms":[{"name":"a","design":"O","config":{"L1DWays":1e9}}],"seeds":[1]}`,
		"negative L1 size": `{"name":"x","workload":{"app":"pr"},"arms":[{"name":"a","design":"Sm","grid":{"L1DBytes":[65536,-1]}}],"seeds":[1]}`,
	}
	for name, js := range cases {
		if _, err := Load(strings.NewReader(js)); err == nil {
			t.Errorf("%s: spec accepted, want error", name)
		}
	}
}

func TestGridExpansion(t *testing.T) {
	s := &Spec{
		Name:     "g",
		Workload: Workload{App: "pr"},
		Arms: []Arm{{
			Name: "a", Design: "O",
			Grid: map[string][]float64{"HybridAlpha": {0.5, 1}, "StealThreshold": {2, 4, 8}},
		}},
		Seeds:      []int64{1},
		LoadLevels: []LoadLevel{{Name: "l1"}, {Name: "l2"}},
	}
	cells := s.Cells()
	if len(cells) != 2*3*2 {
		t.Fatalf("got %d cells, want 12", len(cells))
	}
	// Sorted field order: HybridAlpha varies slowest of the two fields.
	first := cells[0]
	if got := first.Grid.Label(); got != "HybridAlpha=0.5, StealThreshold=2" {
		t.Errorf("first grid label = %q", got)
	}
	if got := first.Label(); got != "a [HybridAlpha=0.5, StealThreshold=2] @ l1" {
		t.Errorf("first cell label = %q", got)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has Index %d", i, c.Index)
		}
	}
}

func TestSummarize(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 || s.CI != 0 {
		t.Errorf("empty: %+v", s)
	}
	if s := Summarize([]float64{3}); s.N != 1 || s.Mean != 3 || s.CI != 0 {
		t.Errorf("single: %+v", s)
	}
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || math.Abs(s.Mean-2) > 1e-12 || math.Abs(s.Std-1) > 1e-12 {
		t.Fatalf("triple: %+v", s)
	}
	wantCI := 4.303 * 1 / math.Sqrt(3)
	if math.Abs(s.CI-wantCI) > 1e-9 {
		t.Errorf("CI = %v, want %v", s.CI, wantCI)
	}
}

func TestTCrit95(t *testing.T) {
	cases := map[int]float64{0: 0, 1: 12.706, 2: 4.303, 30: 2.042, 31: 1.96, 1000: 1.96}
	for df, want := range cases {
		if got := tCrit95(df); got != want {
			t.Errorf("tCrit95(%d) = %v, want %v", df, got, want)
		}
	}
}

func TestSeparated(t *testing.T) {
	a := Summary{N: 3, Mean: 10, CI: 1}
	b := Summary{N: 3, Mean: 13, CI: 1}
	if !Separated(a, b) || !Separated(b, a) {
		t.Error("disjoint intervals not separated")
	}
	c := Summary{N: 3, Mean: 11.5, CI: 1}
	if Separated(a, c) {
		t.Error("overlapping intervals reported separated")
	}
	// Single-sample summaries (CI 0): separated iff means differ.
	if !Separated(Summary{N: 1, Mean: 1}, Summary{N: 1, Mean: 2}) {
		t.Error("distinct single samples not separated")
	}
	if Separated(Summary{N: 1, Mean: 1}, Summary{N: 1, Mean: 1}) {
		t.Error("equal single samples separated")
	}
}

func TestParetoFront(t *testing.T) {
	pts := []ParetoPoint{
		{Cell: 0, X: 1, Y: 5},
		{Cell: 1, X: 2, Y: 4}, // frontier
		{Cell: 2, X: 3, Y: 4}, // dominated by 1
		{Cell: 3, X: 5, Y: 1}, // frontier
		{Cell: 4, X: 1, Y: 5}, // tie with 0: both kept
	}
	out := ParetoFront(pts)
	want := map[int]bool{0: true, 1: true, 2: false, 3: true, 4: true}
	for _, p := range out {
		if p.Frontier != want[p.Cell] {
			t.Errorf("cell %d frontier = %v, want %v", p.Cell, p.Frontier, want[p.Cell])
		}
	}
}

func TestCampaignAggregation(t *testing.T) {
	// base 10 for Sm, 8 for O; seed k multiplies by (1 + k/100).
	ex := secondsExec(t, map[string]float64{"Sm": 10, "O": 8},
		func(seed int64) float64 { return 1 + float64(seed)/100 })
	s := specTwoArms([]int64{3, 1, 2}) // deliberately unsorted
	out, err := s.Run(context.Background(), ex, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Runs != 6 || len(out.Cells) != 2 {
		t.Fatalf("runs=%d cells=%d", out.Runs, len(out.Cells))
	}
	cr := out.Cells[0]
	wantSeeds := []int64{1, 2, 3}
	for i, sd := range cr.OKSeeds {
		if sd != wantSeeds[i] {
			t.Fatalf("OKSeeds = %v, want %v", cr.OKSeeds, wantSeeds)
		}
	}
	// Samples follow OKSeeds order: 10*1.01, 10*1.02, 10*1.03.
	wantMean := (10*1.01 + 10*1.02 + 10*1.03) / 3
	if got := cr.Summaries["seconds"].Mean; math.Abs(got-wantMean) > 1e-12 {
		t.Errorf("base mean = %v, want %v", got, wantMean)
	}
}

func TestCampaignRecordsFailures(t *testing.T) {
	smDesign := mustDesign(t, "Sm")
	ex := &fakeExec{run: func(s bench.Spec) (*ndp.Result, error) {
		if s.Design == smDesign && s.Config.Seed == 2 {
			return nil, fmt.Errorf("boom")
		}
		if s.Design == smDesign && s.Config.Seed == 3 {
			return &ndp.Result{Unrecoverable: "all units dead"}, nil
		}
		return &ndp.Result{Seconds: 1, Tasks: 1}, nil
	}}
	s := specTwoArms([]int64{1, 2, 3})
	out, err := s.Run(context.Background(), ex, false)
	if err != nil {
		t.Fatal(err)
	}
	base := out.Cells[0]
	if len(base.Failures) != 2 {
		t.Fatalf("failures = %v, want 2 entries", base.Failures)
	}
	if len(base.OKSeeds) != 1 || base.OKSeeds[0] != 1 {
		t.Errorf("OKSeeds = %v, want [1]", base.OKSeeds)
	}
	if n := base.Summaries["seconds"].N; n != 1 {
		t.Errorf("seconds N = %d, want 1", n)
	}
}

func TestVerdictConfirmed(t *testing.T) {
	// Candidate is 10% better on every seed: paired relative improvement
	// is exactly 0.1 with zero variance.
	ex := secondsExec(t, map[string]float64{"Sm": 10, "O": 9},
		func(seed int64) float64 { return 1 + float64(seed)/10 })
	s := specTwoArms([]int64{1, 2, 3})
	out, err := s.Run(context.Background(), ex, false)
	if err != nil {
		t.Fatal(err)
	}
	v := out.Verdict
	if v == nil || v.Status != "confirmed" {
		t.Fatalf("verdict = %+v, want confirmed", v)
	}
	if math.Abs(v.Effect-0.1) > 1e-12 || v.Pairs != 3 {
		t.Errorf("effect=%v pairs=%d, want 0.1 and 3", v.Effect, v.Pairs)
	}
}

func TestVerdictRefutedBelowMinEffect(t *testing.T) {
	// Consistent but tiny improvement (1%): resolved, short of min 5%.
	ex := secondsExec(t, map[string]float64{"Sm": 100, "O": 99},
		func(seed int64) float64 { return 1 + float64(seed)/10 })
	s := specTwoArms([]int64{1, 2, 3})
	out, err := s.Run(context.Background(), ex, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Verdict.Status; got != "refuted" {
		t.Fatalf("status = %q (%s), want refuted", got, out.Verdict.Reason)
	}
}

func TestVerdictRefutedDeterioration(t *testing.T) {
	// Candidate consistently worse: resolved in the wrong direction.
	ex := secondsExec(t, map[string]float64{"Sm": 10, "O": 12},
		func(seed int64) float64 { return 1 + float64(seed)/10 })
	s := specTwoArms([]int64{1, 2, 3})
	out, err := s.Run(context.Background(), ex, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Verdict.Status; got != "refuted" {
		t.Fatalf("status = %q, want refuted", got)
	}
	if out.Verdict.Effect >= 0 {
		t.Errorf("effect = %v, want negative", out.Verdict.Effect)
	}
}

func TestVerdictInconclusiveNoisy(t *testing.T) {
	// The improvement flips sign by seed: CI spans zero.
	smDesign := mustDesign(t, "Sm")
	ex := &fakeExec{run: func(s bench.Spec) (*ndp.Result, error) {
		sec := 10.0
		if s.Design != smDesign {
			if s.Config.Seed%2 == 0 {
				sec = 8
			} else {
				sec = 12
			}
		}
		return &ndp.Result{Seconds: sec, Tasks: 1}, nil
	}}
	s := specTwoArms([]int64{1, 2, 3, 4})
	out, err := s.Run(context.Background(), ex, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Verdict.Status; got != "inconclusive" {
		t.Fatalf("status = %q, want inconclusive", got)
	}
}

func TestVerdictInconclusiveArmAllFailed(t *testing.T) {
	smDesign := mustDesign(t, "Sm")
	ex := &fakeExec{run: func(s bench.Spec) (*ndp.Result, error) {
		if s.Design == smDesign {
			return nil, fmt.Errorf("boom")
		}
		return &ndp.Result{Seconds: 1, Tasks: 1}, nil
	}}
	s := specTwoArms([]int64{1, 2})
	out, err := s.Run(context.Background(), ex, false)
	if err != nil {
		t.Fatal(err)
	}
	v := out.Verdict
	if v.Status != "inconclusive" || v.BaselineCell != -1 {
		t.Fatalf("verdict = %+v, want inconclusive with BaselineCell -1", v)
	}
}

func TestVerdictInconclusiveTooFewPairs(t *testing.T) {
	// Candidate fails on all but one seed: a single pair has no CI.
	oDesign := mustDesign(t, "O")
	ex := &fakeExec{run: func(s bench.Spec) (*ndp.Result, error) {
		if s.Design == oDesign && s.Config.Seed != 1 {
			return nil, fmt.Errorf("boom")
		}
		return &ndp.Result{Seconds: 10 - float64(s.Config.Seed), Tasks: 1}, nil
	}}
	s := specTwoArms([]int64{1, 2, 3})
	out, err := s.Run(context.Background(), ex, false)
	if err != nil {
		t.Fatal(err)
	}
	v := out.Verdict
	if v.Status != "inconclusive" || v.Pairs != 1 {
		t.Fatalf("verdict = %+v, want inconclusive with 1 pair", v)
	}
}

func TestVerdictLevelRestriction(t *testing.T) {
	// Light cells have lower absolute seconds for both arms; only the
	// heavy level shows the candidate's improvement. Without the level
	// pin the best cells come from light (no effect); with it, heavy.
	smDesign := mustDesign(t, "Sm")
	ex := &fakeExec{run: func(s bench.Spec) (*ndp.Result, error) {
		light := s.Params.Scale < 6
		sec := 100.0
		if light {
			sec = 1.0 // identical across arms at light load
		} else if s.Design != smDesign {
			sec = 80.0 // candidate wins only at heavy load
		}
		sec *= 1 + float64(s.Config.Seed)/100
		return &ndp.Result{Seconds: sec, Tasks: 1}, nil
	}}
	s := specTwoArms([]int64{1, 2, 3})
	s.LoadLevels = []LoadLevel{
		{Name: "light", Workload: Workload{Scale: 5}},
		{Name: "heavy", Workload: Workload{Scale: 8}},
	}

	out, err := s.Run(context.Background(), ex, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Verdict.Effect; got != 0 {
		t.Fatalf("unpinned effect = %v, want 0 (light cells tie)", got)
	}

	s.Verdict.Level = "heavy"
	out, err = s.Run(context.Background(), ex, false)
	if err != nil {
		t.Fatal(err)
	}
	v := out.Verdict
	if v.Status != "confirmed" {
		t.Fatalf("pinned verdict = %q (%s), want confirmed", v.Status, v.Reason)
	}
	for _, ci := range []int{v.BaselineCell, v.CandidateCell} {
		if lvl := out.Cells[ci].Cell.Level.Name; lvl != "heavy" {
			t.Errorf("compared cell at level %q, want heavy", lvl)
		}
	}
	if math.Abs(v.Effect-0.2) > 1e-12 {
		t.Errorf("effect = %v, want 0.2", v.Effect)
	}
}

// TestFindingsDeterministic is the multi-seed determinism contract: the
// same spec renders byte-identical reports across runs, and listing the
// seeds in a different order changes nothing — results are indexed by
// (cell, seed) and aggregated in ascending seed order.
func TestFindingsDeterministic(t *testing.T) {
	ex := secondsExec(t, map[string]float64{"Sm": 10, "O": 9},
		func(seed int64) float64 { return 1 + float64(seed)/7 })
	render := func(seeds []int64) ([]byte, []byte) {
		s := specTwoArms(seeds)
		s.Pareto = &Pareto{X: "inter_hops", Y: "seconds"}
		out, err := s.Run(context.Background(), ex, false)
		if err != nil {
			t.Fatal(err)
		}
		md := RenderFindings(out)
		js, err := RenderJSON(out)
		if err != nil {
			t.Fatal(err)
		}
		return md, js
	}

	md1, js1 := render([]int64{5, 2, 9, 4})
	for i := 0; i < 3; i++ {
		md2, js2 := render([]int64{5, 2, 9, 4})
		if !bytes.Equal(md1, md2) || !bytes.Equal(js1, js2) {
			t.Fatal("rerun of identical spec produced different report bytes")
		}
	}
	md3, js3 := render([]int64{9, 4, 5, 2}) // permuted seed order
	if !bytes.Equal(md1, md3) || !bytes.Equal(js1, js3) {
		t.Fatal("permuting the spec's seed order changed the report bytes")
	}
}

// TestFindingsDeterministicRealRunner runs a tiny real campaign twice
// through the bench harness and demands byte-identical reports —
// concurrency must not leak into the aggregates.
func TestFindingsDeterministicRealRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation runs")
	}
	s := &Spec{
		Name:     "tiny",
		Workload: Workload{App: "pr", Scale: 5, Degree: 3},
		Arms: []Arm{
			{Name: "Sm", Design: "Sm"},
			{Name: "O", Design: "O", Grid: map[string][]float64{"HybridAlpha": {0.5, 1}}},
		},
		Seeds:   []int64{1, 2, 3},
		Pareto:  &Pareto{X: "inter_hops", Y: "seconds"},
		Verdict: &Verdict{Baseline: "Sm", Candidate: "O", Metric: "seconds", MinEffect: 0.01},
	}
	render := func() ([]byte, []byte) {
		r := bench.NewRunner(io.Discard)
		r.SetQuick(true)
		out, err := s.Run(context.Background(), r, false)
		if err != nil {
			t.Fatal(err)
		}
		md := RenderFindings(out)
		js, err := RenderJSON(out)
		if err != nil {
			t.Fatal(err)
		}
		return md, js
	}
	md1, js1 := render()
	md2, js2 := render()
	if !bytes.Equal(md1, md2) || !bytes.Equal(js1, js2) {
		t.Fatal("identical real campaign produced different report bytes")
	}
	if !bytes.Contains(md1, []byte("## Pareto frontier")) {
		t.Error("report missing Pareto section")
	}
}
