package bench

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"abndp/internal/config"
	"abndp/internal/stats"
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

// Tables 1 and 2 list the configuration and the design matrix without a
// single run.
func TestTablesPrintWithoutSimulation(t *testing.T) {
	r, _ := quickRunner()
	t1, t2 := r.table1(), r.table2()
	if n := r.RunsExecuted(); n != 0 {
		t.Fatalf("the tables simulated %d runs", n)
	}
	found := false
	for _, row := range t1.rows {
		if row[0].label == "Traveller Cache" {
			found = strings.Contains(row[1].label, "C=3 camps")
		}
	}
	if !found {
		t.Fatalf("Table 1 has no Traveller Cache row with C=3 camps: %v", t1.rows)
	}
	if len(t2.rows) != len(config.AllDesigns) {
		t.Fatalf("Table 2 has %d rows, want one per design", len(t2.rows))
	}
	for _, row := range t2.rows {
		if row[0].label == "O" && (row[1].label != "Hybrid (ours)" || row[2].label != "Yes (ours)") {
			t.Fatalf("Table 2's O row is %v", row)
		}
		if row[0].label == "H" && row[2].label != "-" {
			t.Fatalf("Table 2's H row is %v", row)
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
	if err := r.Run("fig99"); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("Run(fig99) = %v, want an unknown experiment error", err)
	}
}

// Fig. 2 normalizes to BASE: its BASE row's hops and busiest unit are 1.
func TestFigure2Smoke(t *testing.T) {
	r, _ := quickRunner()
	tab := r.figure2()
	hops, max := tab.col("hops"), tab.col("max")
	base := tab.rows[0]
	if base[0].label != "BASE" || base[hops].num != 1 || base[max].num != 1 {
		t.Fatalf("Figure 2's first row is %v, want BASE with hops and max 1", base)
	}
	if len(tab.rows) != 3 || tab.rows[1][0].label != "LDM" || tab.rows[2][0].label != "WS" {
		t.Fatalf("Figure 2 rows: %v", tab.rows)
	}
}

// Fig. 8 normalizes to B: its B column is 1 on every row.
func TestFigure8Smoke(t *testing.T) {
	r, _ := quickRunner()
	tab := r.figure8()
	if len(tab.rows) != len(figureApps) {
		t.Fatalf("Figure 8 has %d rows, want %d", len(tab.rows), len(figureApps))
	}
	b := tab.col("B")
	for _, row := range tab.rows {
		if row[b].num != 1 {
			t.Fatalf("Figure 8 row %s: B = %v, want 1", row[0].label, row[b].num)
		}
	}
}

// Fig. 11 normalizes to the identical mapping: that column is 1.
func TestFigure11Smoke(t *testing.T) {
	r, _ := quickRunner()
	tab := r.figure11()
	ident := tab.col("identical")
	for _, row := range tab.rows {
		if row[ident].num != 1 {
			t.Fatalf("Figure 11 row %s: identical = %v, want 1", row[0].label, row[ident].num)
		}
	}
}

// Fig. 17 normalizes to alpha = 0: those rows have hops and speedup 1.
func TestFigure17Smoke(t *testing.T) {
	r, _ := quickRunner()
	tab := r.figure17()
	alpha, hops, speedup := tab.col("alpha"), tab.col("hops"), tab.col("speedup")
	zeros := 0
	for _, row := range tab.rows {
		if row[alpha].num != 0 {
			continue
		}
		zeros++
		if row[hops].num != 1 || row[speedup].num != 1 {
			t.Fatalf("Figure 17 row %s alpha 0: hops %v, speedup %v, want 1", row[0].label, row[hops].num, row[speedup].num)
		}
	}
	if zeros != len(figureApps) {
		t.Fatalf("Figure 17 has %d alpha-0 rows, want one per app", zeros)
	}
}

// Fig. 6's geomean row is each design's geomean over the app rows above it.
func TestFigure6Geomean(t *testing.T) {
	r, _ := quickRunner()
	tab := r.figure6()
	last := len(tab.rows) - 1
	if last != len(appsList()) || tab.rows[last][0].label != "geomean" {
		t.Fatalf("Figure 6 rows: %v", tab.rows)
	}
	for j := 1; j < len(tab.cols); j++ {
		var apps []float64
		for _, row := range tab.rows[:last] {
			apps = append(apps, row[j].num)
		}
		if got, want := tab.rows[last][j].num, stats.Geomean(apps); got != want {
			t.Fatalf("Figure 6 geomean of %s = %v, want %v", tab.cols[j].name, got, want)
		}
	}
}

// Every name in the three exported lists resolves in the experiment list,
// and every experiment is named by exactly one of them, in display order.
func TestExperimentListCovered(t *testing.T) {
	var names []string
	names = append(names, Experiments...)
	names = append(names, AblationExperiments...)
	names = append(names, ResilienceExperiments...)
	for _, n := range names {
		if _, err := lookup(n); err != nil {
			t.Fatal(err)
		}
	}
	if len(names) != len(experiments) {
		t.Fatalf("the exported lists name %d experiments, the experiment list holds %d", len(names), len(experiments))
	}
	for i, e := range experiments {
		if names[i] != e.name {
			t.Fatalf("experiment %d is %q, the exported lists name %q", i, e.name, names[i])
		}
	}
	if len(Experiments) != 16 {
		t.Fatalf("Experiments lists %d entries, want 16 (2 tables + 14 figures)", len(Experiments))
	}
}

// The text renderer prints a table as the harness always has. The rows are
// copied from docs/abndpbench_output.txt: the Resilience table's shape (a
// trailing label column and integer columns) and a %.2f one (Figure 6).
func TestTableText(t *testing.T) {
	res := newTable("Resilience: injected faults vs graceful degradation (pr; slowdown vs same-design healthy)",
		labels("design", "scenario"), nums("%.3f", "slowdown"),
		nums("%.0f", "dram retries", "reexec", "moved", "rerouted"), labels("verdict"))
	res.add("O", "healthy", 1.0, 0.0, 0.0, 0.0, 0.0, "-")
	res.add("O", "dram 1e-3", 0.9871, 682.0, 0.0, 0.0, 0.0, "-")
	res.add("O", "4 slow 4x", 1.4237, 0.0, 0.0, 0.0, 0.0, "-")
	res.add("O", "2 dead units", 1.0302, 0.0, 0.0, 261.0, 0.0, "-")
	res.add("O", "2 dead links", 1.0031, 0.0, 0.0, 0.0, 6250.0, "-")
	fig6 := newTable("Figure 6: Overall speedup (normalized to B)",
		labels("app"), nums("%.2f", "H", "B", "Sm", "Sl", "Sh", "C", "O"))
	fig6.add("pr", 1.1634, 1.0, 0.6449, 0.9021, 1.1512, 0.6239, 1.2749)
	fig6.add("geomean", 0.6912, 1.0, 0.5791, 0.8178, 1.0203, 0.5714, 1.1093)

	var buf bytes.Buffer
	res.writeText(&buf)
	fig6.writeText(&buf)
	want := `
=== Resilience: injected faults vs graceful degradation (pr; slowdown vs same-design healthy) ===
design  scenario      slowdown  dram retries  reexec  moved  rerouted  verdict
O       healthy       1.000     0             0       0      0         -
O       dram 1e-3     0.987     682           0       0      0         -
O       4 slow 4x     1.424     0             0       0      0         -
O       2 dead units  1.030     0             0       261    0         -
O       2 dead links  1.003     0             0       0      6250      -

=== Figure 6: Overall speedup (normalized to B) ===
app      H     B     Sm    Sl    Sh    C     O
pr       1.16  1.00  0.64  0.90  1.15  0.62  1.27
geomean  0.69  1.00  0.58  0.82  1.02  0.57  1.11
`
	if got := buf.String(); got != want {
		t.Fatalf("text renderer printed\n%s\nwant\n%s", got, want)
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

// RenderSVGs on its own plans the charts' runs and simulates them on the
// worker pool: every run it executes is one of the planned ones, so none
// is simulated inline while the charts are built.
func TestRenderSVGsPlansItsRuns(t *testing.T) {
	r, _ := quickRunner()
	r.SetWorkers(2)
	var progress bytes.Buffer
	r.SetProgress(&progress)
	if _, err := r.RenderSVGs(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	var planned, workers int
	for _, line := range strings.Split(progress.String(), "\n") {
		if strings.HasPrefix(line, "simulating ") {
			if _, err := fmt.Sscanf(line, "simulating %d runs on %d workers", &planned, &workers); err != nil {
				t.Fatalf("bad plan line %q: %v", line, err)
			}
		}
	}
	if planned == 0 || workers != 2 {
		t.Fatalf("RenderSVGs showed no plan on 2 workers; progress:\n%s", progress.String())
	}
	if n := r.RunsExecuted(); n != int64(planned) {
		t.Fatalf("RenderSVGs executed %d runs, %d of them planned", n, planned)
	}
}
