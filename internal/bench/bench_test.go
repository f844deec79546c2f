package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"abndp/internal/config"
)

func quickRunner() (*Runner, *bytes.Buffer) {
	var buf bytes.Buffer
	r := NewRunner(&buf)
	r.SetQuick(true)
	// Shrink the per-unit memory so cache construction stays fast; the
	// 4x4 mesh is kept because Figure 12 sweeps up to 16 camp groups,
	// which must tile the stack mesh.
	r.base.UnitBytes = 16 << 20
	return r, &buf
}

func TestTablesPrintWithoutSimulation(t *testing.T) {
	r, buf := quickRunner()
	r.Table1()
	r.Table2()
	out := buf.String()
	for _, want := range []string{"Table 1", "Table 2", "Traveller Cache", "Hybrid (ours)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCachesResults(t *testing.T) {
	r, _ := quickRunner()
	a := r.run("spmv", config.DesignB, nil)
	b := r.run("spmv", config.DesignB, nil)
	if a != b {
		t.Fatal("identical runs were not cached")
	}
	c := r.run("spmv", config.DesignSm, nil)
	if a == c {
		t.Fatal("different designs shared a cache entry")
	}
	d := r.run("spmv", config.DesignB, func(c *config.Config) { c.CacheRatio = 32 })
	if a == d {
		t.Fatal("different configs shared a cache entry")
	}
}

func TestUnknownExperiment(t *testing.T) {
	r, _ := quickRunner()
	if err := r.Run("fig99"); err == nil {
		t.Fatal("Run accepted an unknown experiment")
	}
}

func TestFigure2Smoke(t *testing.T) {
	r, buf := quickRunner()
	r.Figure2()
	out := buf.String()
	for _, want := range []string{"BASE", "LDM", "WS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Figure 2 output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure8Smoke(t *testing.T) {
	r, buf := quickRunner()
	r.Figure8()
	if !strings.Contains(buf.String(), "spmv") {
		t.Fatalf("Figure 8 output incomplete:\n%s", buf.String())
	}
}

func TestFigure11Smoke(t *testing.T) {
	r, buf := quickRunner()
	r.Figure11()
	if !strings.Contains(buf.String(), "identical") {
		t.Fatalf("Figure 11 output incomplete:\n%s", buf.String())
	}
}

func TestFigure17Smoke(t *testing.T) {
	r, buf := quickRunner()
	r.Figure17()
	out := buf.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "knn") {
		t.Fatalf("Figure 17 output incomplete:\n%s", out)
	}
}

func TestExperimentListCovered(t *testing.T) {
	// Every listed experiment must dispatch.
	r, _ := quickRunner()
	for _, e := range []string{"tab1", "tab2"} {
		if err := r.Run(e); err != nil {
			t.Fatalf("Run(%q): %v", e, err)
		}
	}
	if len(Experiments) != 16 {
		t.Fatalf("Experiments lists %d entries, want 16 (2 tables + 14 figures)", len(Experiments))
	}
}

func TestAblationsSmoke(t *testing.T) {
	for _, e := range AblationExperiments {
		r, buf := quickRunner()
		if err := r.Run(e); err != nil {
			t.Fatalf("Run(%q): %v", e, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", e)
		}
	}
}

// TestRunAllQuick drives every experiment (figures + ablations) end to end
// at quick sizes — the harness's integration test. A run that panicked or
// hung would only show as a placeholder row, so any failure fails it.
func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness sweep in -short mode")
	}
	r, buf := quickRunner()
	r.RunAll()
	for _, f := range r.Failures() {
		t.Errorf("run %s failed (hung %v): %s", f.Key, f.Hung, f.Err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 6", "Figure 18", "Ablation: scheduling window"} {
		if !strings.Contains(out, want) {
			t.Fatalf("RunAll output missing %q", want)
		}
	}
}

// TestRenderSVGsQuick exercises the SVG export path end to end.
func TestRenderSVGsQuick(t *testing.T) {
	r, _ := quickRunner()
	dir := t.TempDir()
	files, err := r.RenderSVGs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 12 {
		t.Fatalf("rendered %d figures, want 12", len(files))
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "<svg") {
			t.Fatalf("%s is not an SVG", f)
		}
	}
}
