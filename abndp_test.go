package abndp

import (
	"strings"
	"testing"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.MeshX, cfg.MeshY = 2, 2
	cfg.UnitBytes = 16 << 20
	return cfg
}

func smallParams() Params { return Params{Scale: 8, Degree: 6, Seed: 3} }

func TestRunAllWorkloadsUnderO(t *testing.T) {
	cfg := smallConfig()
	for _, w := range Workloads() {
		res, err := Run(w, DesignO, cfg, smallParams())
		if err != nil {
			t.Fatalf("Run(%q): %v", w, err)
		}
		if res.Makespan <= 0 || res.Tasks <= 0 {
			t.Fatalf("Run(%q): empty result %+v", w, res)
		}
		if res.App != w || res.Design != DesignO {
			t.Fatalf("Run(%q): mislabeled result", w)
		}
	}
}

func TestRunRejectsHostDesign(t *testing.T) {
	if _, err := Run("pr", DesignH, smallConfig(), smallParams()); err == nil {
		t.Fatal("Run must reject DesignH")
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	if _, err := Run("nope", DesignO, smallConfig(), smallParams()); err == nil {
		t.Fatal("Run must reject unknown workloads")
	}
}

// TestRunRejectsAStarWithoutGrid: astar's grid side is 2^(scale/2)-1, so
// scale 1 leaves no vertex; Run reports that as an error instead of
// panicking in Setup. Scale 2, the smallest grid, runs.
func TestRunRejectsAStarWithoutGrid(t *testing.T) {
	_, err := Run("astar", DesignO, DefaultConfig(), Params{Scale: 1})
	if err == nil || !strings.Contains(err.Error(), "astar needs a scale of at least 2") {
		t.Fatalf("astar at scale 1: err %v, want the scale error", err)
	}
	if _, err := Run("astar", DesignO, smallConfig(), Params{Scale: 2}); err != nil {
		t.Fatalf("astar at scale 2: %v", err)
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.CoresPerUnit = 0
	if _, err := Run("pr", DesignB, cfg, smallParams()); err == nil {
		t.Fatal("Run must reject invalid configs")
	}
	// Three groups cannot tile the 4x4 mesh: an error, not a panic in
	// topology construction.
	cfg = smallConfig()
	cfg.CampCount = 2
	if _, err := Run("pr", DesignO, cfg, smallParams()); err == nil {
		t.Fatal("Run must reject a camp count whose groups cannot tile the mesh")
	}
}

func TestRunHost(t *testing.T) {
	r, err := RunHost("pr", smallConfig(), smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Seconds <= 0 {
		t.Fatalf("host seconds = %v", r.Seconds)
	}
}

func TestCharacterize(t *testing.T) {
	fr, err := Characterize("spmv", smallConfig(), smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if fr.Instructions <= 0 || fr.Footprint <= 0 {
		t.Fatalf("characterization empty: %+v", fr)
	}
}

func TestParseDesignRoundTrip(t *testing.T) {
	for _, d := range AllDesigns {
		got, err := ParseDesign(d.String())
		if err != nil || got != d {
			t.Fatalf("ParseDesign(%v) = %v, %v", d, got, err)
		}
	}
}

// The headline claim on a small system: full ABNDP (O) outperforms the
// baseline B on a skewed graph workload, with fewer remote hops than the
// work-stealing design Sl.
func TestABNDPBeatsBaselineOnPageRank(t *testing.T) {
	cfg := smallConfig()
	// Large enough that camp caching and load spreading have room to work
	// on the shrunken 2x2 test machine.
	p := Params{Scale: 12, Degree: 8, Iters: 3, Seed: 1}
	rB, err := Run("pr", DesignB, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	rO, err := Run("pr", DesignO, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	rSl, err := Run("pr", DesignSl, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if rO.Makespan >= rB.Makespan {
		t.Fatalf("O makespan %d not better than B %d", rO.Makespan, rB.Makespan)
	}
	if rO.InterHops >= rSl.InterHops {
		t.Fatalf("O hops %d should undercut Sl hops %d", rO.InterHops, rSl.InterHops)
	}
}

func TestRunAppTracedEmitsEveryTask(t *testing.T) {
	app, err := NewApp("spmv", smallParams())
	if err != nil {
		t.Fatal(err)
	}
	var traces []TaskTrace
	res, err := RunAppTraced(app, DesignO, smallConfig(), func(tr TaskTrace) {
		traces = append(traces, tr)
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(traces)) != res.Tasks {
		t.Fatalf("traced %d tasks, ran %d", len(traces), res.Tasks)
	}
	for _, tr := range traces {
		if tr.Dur <= 0 || tr.Lines <= 0 {
			t.Fatalf("malformed trace %+v", tr)
		}
		if tr.Cycle > res.Makespan {
			t.Fatalf("trace completion %d beyond makespan %d", tr.Cycle, res.Makespan)
		}
	}
}

func TestNewSystemExposesTopology(t *testing.T) {
	sys, err := NewSystem(smallConfig(), DesignO)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Topo.Units() != 32 {
		t.Fatalf("units = %d, want 32 on the 2x2 test machine", sys.Topo.Units())
	}
	locs := sys.Camps.Locations(Line(123456))
	if len(locs) != sys.Topo.Groups() {
		t.Fatalf("camp locations = %d, want %d", len(locs), sys.Topo.Groups())
	}
	if _, err := NewSystem(smallConfig(), DesignH); err == nil {
		t.Fatal("NewSystem must reject DesignH")
	}
}

func TestTorusConfigRuns(t *testing.T) {
	cfg := smallConfig()
	cfg.Torus = true
	res, err := Run("pr", DesignO, cfg, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks == 0 {
		t.Fatal("torus run executed nothing")
	}
}

// The headline ordering must not be a seed artifact: across several input
// seeds, full ABNDP wins on average and never collapses below the baseline.
func TestHeadlineHoldsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep in -short mode")
	}
	cfg := smallConfig()
	var ratios []float64
	for _, seed := range []int64{1, 7, 1234} {
		p := Params{Scale: 12, Degree: 8, Iters: 3, Seed: seed}
		rB, err := Run("pr", DesignB, cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		rO, err := Run("pr", DesignO, cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(rB.Makespan) / float64(rO.Makespan)
		ratios = append(ratios, ratio)
		if ratio < 0.9 {
			t.Fatalf("seed %d: O collapsed to %.2fx of B", seed, ratio)
		}
	}
	var sum float64
	for _, r := range ratios {
		sum += r
	}
	if mean := sum / float64(len(ratios)); mean < 1.0 {
		t.Fatalf("mean O-over-B speedup %.3f < 1 across seeds %v", mean, ratios)
	}
}
