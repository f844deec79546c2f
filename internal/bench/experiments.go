package bench

import (
	"fmt"
	"io"

	"abndp/internal/plot"
)

// experiment is one table or figure of the harness. build computes its
// tables through the Runner's run calls: the text prints the first, and
// chart, for the experiments with an SVG, plots from them. Planning runs
// build against placeholder results and drops what it returns.
type experiment struct {
	name  string
	group int // paper, ablation or faults: which exported list names it
	build func(*Runner) []*table
	chart *chart
}

// The experiment groups: the paper's tables and figures, ablations of
// design choices the paper's text claims, and the fault-injection sweep,
// which has no counterpart in the paper.
const (
	paper = iota
	ablation
	faults
)

// one adapts a builder of a single table.
func one(build func(*Runner) *table) func(*Runner) []*table {
	return func(r *Runner) []*table { return []*table{build(r)} }
}

// experiments is every experiment in display order: the paper's in paper
// order, then the ablations, then the fault sweep.
var experiments = []*experiment{
	{name: "tab1", build: one((*Runner).table1)},
	{name: "tab2", build: one((*Runner).table2)},
	{name: "fig2", build: one((*Runner).figure2), chart: &chart{
		file: "fig02_tradeoff", draw: plot.Bar,
		head: plot.Chart{Title: "Figure 2: the remote-access / load-balance tradeoff (Page Rank)",
			Subtitle: "both ratios normalized to BASE = 1"},
		data: func(t []*table) ([]string, []plot.Series) {
			cats, s := columnSeries(t[0], "hops", "max")
			s[0].Name, s[1].Name = "inter-stack hops", "busiest unit cycles"
			return cats, s
		},
	}},
	{name: "fig6", build: one((*Runner).figure6), chart: &chart{
		file: "fig06_speedup", draw: plot.Bar,
		head: plot.Chart{Title: "Figure 6: overall speedup",
			Subtitle: "normalized to design B = 1", YLabel: "speedup", Width: 980},
		data: func(t []*table) ([]string, []plot.Series) {
			return columnSeries(t[0], designNames(designOrder)...)
		},
	}},
	{name: "fig7", build: one((*Runner).figure7), chart: &chart{
		file: "fig07_energy", draw: plot.StackedBar,
		head: plot.Chart{Title: "Figure 7: energy breakdown (mean over workloads)",
			Subtitle: "normalized to design B = 1", YLabel: "energy vs B"},
		data: func(t []*table) ([]string, []plot.Series) {
			return designMeans(t[0], "static", "DRAM", "interconnect", "core+SRAM")
		},
	}},
	{name: "fig8", build: one((*Runner).figure8), chart: &chart{
		file: "fig08_hops", draw: plot.Bar,
		head: plot.Chart{Title: "Figure 8: remote accesses (inter-stack hops)",
			Subtitle: "normalized to design B = 1", YLabel: "hops vs B", Width: 860},
		data: func(t []*table) ([]string, []plot.Series) { return columnSeries(t[0]) },
	}},
	{name: "fig9", build: (*Runner).figure9, chart: &chart{
		file: "fig09_loaddist", draw: plot.Line,
		head: plot.Chart{Title: "Figure 9: active cycles across NDP cores (Page Rank)",
			Subtitle: "cores sorted ascending per design; per-design mean = 1", YLabel: "cycles / mean", Width: 860},
		data: func(t []*table) ([]string, []plot.Series) { return columnSeries(t[1]) },
	}},
	{name: "fig10", build: one((*Runner).figure10), chart: &chart{
		file: "fig10_scalability", draw: plot.Bar,
		head: plot.Chart{Title: "Figure 10: scalability (Page Rank)",
			Subtitle: "speedup over design B at each scale", YLabel: "speedup"},
		data: func(t []*table) ([]string, []plot.Series) { return pivot(t[0], "scale", "design", "speedup") },
	}},
	{name: "fig11", build: one((*Runner).figure11), chart: &chart{
		file: "fig11_skewed", draw: plot.Bar,
		head: plot.Chart{Title: "Figure 11: skewed vs identical camp mapping",
			Subtitle: "inter-stack hops, identical mapping = 1", YLabel: "hops"},
		data: func(t []*table) ([]string, []plot.Series) { return columnSeries(t[0]) },
	}},
	{name: "fig12", build: one((*Runner).figure12)},
	{name: "fig13", build: one((*Runner).figure13), chart: &chart{
		file: "fig13_cachekind", draw: plot.Bar,
		head: plot.Chart{Title: "Figure 13: cache implementation",
			Subtitle: "speedup, Traveller Cache = 1", YLabel: "speedup"},
		data: func(t []*table) ([]string, []plot.Series) { return pivot(t[0], "app", "kind", "speedup") },
	}},
	{name: "fig14", build: one((*Runner).figure14), chart: &chart{
		file: "fig14_capacity", draw: plot.Line,
		head: plot.Chart{Title: "Figure 14: Traveller Cache capacity",
			Subtitle: "inter-stack hops, smallest cache = 1", YLabel: "hops"},
		data: func(t []*table) ([]string, []plot.Series) { return rowSeries(t[0]) },
	}},
	{name: "fig15", build: one((*Runner).figure15), chart: &chart{
		file: "fig15_associativity", draw: plot.Line,
		head: plot.Chart{Title: "Figure 15: Traveller Cache associativity",
			Subtitle: "inter-stack hops, direct-mapped = 1", YLabel: "hops"},
		data: func(t []*table) ([]string, []plot.Series) { return rowSeries(t[0]) },
	}},
	{name: "fig16", build: one((*Runner).figure16)},
	{name: "fig17", build: one((*Runner).figure17), chart: &chart{
		file: "fig17_hybridweight", draw: plot.Line,
		head: plot.Chart{Title: "Figure 17: hybrid weight B = alpha x Dinter",
			Subtitle: "speedup over alpha = 0", YLabel: "speedup"},
		data: func(t []*table) ([]string, []plot.Series) { return pivot(t[0], "alpha", "app", "speedup") },
	}},
	{name: "fig18", build: one((*Runner).figure18), chart: &chart{
		file: "fig18_exchange", draw: plot.Line,
		head: plot.Chart{Title: "Figure 18: workload exchange interval",
			Subtitle: "speedup over the shortest interval", YLabel: "speedup"},
		data: func(t []*table) ([]string, []plot.Series) { return rowSeries(t[0]) },
	}},
	{name: "ablrepl", group: ablation, build: one((*Runner).ablationReplacement)},
	{name: "ablprobe", group: ablation, build: one((*Runner).ablationProbeAll)},
	{name: "ablhint", group: ablation, build: one((*Runner).ablationHints)},
	{name: "abltopo", group: ablation, build: one((*Runner).ablationTopology)},
	{name: "ablsteal", group: ablation, build: one((*Runner).ablationStealing)},
	{name: "ablwindow", group: ablation, build: one((*Runner).ablationWindow)},
	{name: "resilience", group: faults, build: one((*Runner).resilience)},
}

// The experiment names of each group, in display order: Experiments the
// paper's tables and figures, AblationExperiments the ablations, and
// ResilienceExperiments the fault-injection sweep.
var (
	Experiments           = groupNames(paper)
	AblationExperiments   = groupNames(ablation)
	ResilienceExperiments = groupNames(faults)
)

func groupNames(group int) []string {
	var names []string
	for _, e := range experiments {
		if e.group == group {
			names = append(names, e.name)
		}
	}
	return names
}

// lookup returns the named experiment.
func lookup(name string) (*experiment, error) {
	for _, e := range experiments {
		if e.name == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q", name)
}

// Run executes one experiment by name: its run set is simulated by the
// worker pool, then its table is printed from the completed results.
func (r *Runner) Run(name string) error { return r.RenderTo(r.out, name) }

// RenderTo is Run printing into w instead of the Runner's construction-time
// writer. It must not overlap itself, Run, or RunAll on the same Runner
// (the serving layer serializes renders); it may overlap RunOne calls,
// which touch neither the memo nor the planning state.
func (r *Runner) RenderTo(w io.Writer, name string) error {
	e, err := lookup(name)
	if err != nil {
		return err
	}
	r.planAndExecute(e)
	r.render(w, e)
	return nil
}

// render builds one experiment's tables and prints the first. Every run it
// asks for hits the cache warmed by planAndExecute (a miss simulates
// inline, so a partial plan stays correct).
func (r *Runner) render(w io.Writer, e *experiment) {
	r.progressf("render %s\n", e.name)
	e.build(r)[0].writeText(w)
}

// RunAll executes every experiment in display order. The union of every
// experiment's run set is deduplicated and simulated up front, so
// overlapping experiments (most share the design-O defaults) simulate once
// and the pool sees the widest possible parallelism.
func (r *Runner) RunAll() {
	r.planAndExecute(experiments...)
	for _, e := range experiments {
		r.render(r.out, e)
	}
}
