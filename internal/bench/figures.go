package bench

import (
	"fmt"
	"strconv"

	"abndp/internal/config"
	"abndp/internal/mem"
	"abndp/internal/stats"
	"abndp/internal/traveller"
)

// table1 lists the system configuration (paper Table 1).
func (r *Runner) table1() *table {
	c := r.base
	t := newTable("Table 1: System configurations", labels("", ""))
	t.add("NDP system", fmt.Sprintf("%dx%d stacks in mesh, %d NDP units per stack; %d GB total, %d MB per unit",
		c.MeshX, c.MeshY, c.UnitsPerStack,
		uint64(c.Units())*c.UnitBytes>>30, c.UnitBytes>>20))
	t.add("NDP core", fmt.Sprintf("%.0f GHz, %d cores per NDP unit (%d in total)",
		c.CoreGHz, c.CoresPerUnit, c.Units()*c.CoresPerUnit))
	t.add("L1-D cache", fmt.Sprintf("%d kB, %d-way, 64 B cachelines, LRU", c.L1DBytes>>10, c.L1DWays))
	t.add("L1-I cache", fmt.Sprintf("%d kB, %d-way, 64 B cachelines, LRU", c.L1IBytes>>10, c.L1IWays))
	t.add("Prefetch buffer", fmt.Sprintf("%d kB, 64 B blocks, FIFO", c.PrefetchBufBytes>>10))
	t.add("DRAM channel", fmt.Sprintf("tCAS=tRCD=tRP=%.0f ns; %.1f pJ/bit RD/WR, %.1f pJ ACT/PRE",
		c.TCASns, c.DRAMPJPerBit, c.DRAMActPrePJ))
	t.add("Intra-stack net", fmt.Sprintf("%.1f ns/hop; %.1f pJ/bit", c.IntraHopNS, c.IntraPJPerBit))
	t.add("Inter-stack net", fmt.Sprintf("%.0f ns/hop; %.1f pJ/bit", c.InterHopNS, c.InterPJPerBit))
	t.add("Traveller Cache", fmt.Sprintf("1/%d of local mem, %d-way; C=%d camps; random repl., %.0f%% bypass",
		c.CacheRatio, c.CacheWays, c.CampCount, c.BypassProb*100))
	t.add("Scheduler", fmt.Sprintf("%d-cycle workload exchange; hybrid weight B = 3*Dinter",
		c.ExchangeInterval))
	sets := int(c.CacheBytes()) / mem.LineSize / c.CacheWays
	t.add("SRAM tags", fmt.Sprintf("%d bits/entry (15 without camp restriction)",
		traveller.TagBits(uint64(c.Units())*c.UnitBytes, sets, c.Units()/c.Groups())))
	return t
}

// table2 lists the evaluated design matrix (paper Table 2).
func (r *Runner) table2() *table {
	t := newTable("Table 2: Evaluated system designs", labels("Design", "Task scheduling", "DRAM caches"))
	for _, d := range config.AllDesigns {
		cache := "No"
		if d.UsesCache() {
			cache = "Yes (ours)"
		}
		if d == config.DesignH {
			cache = "-"
		}
		t.add(d.String(), d.SchedulingName(), cache)
	}
	return t
}

// figure2 reproduces the motivation experiment: lowest-distance mapping
// (LDM = Sm) and work stealing (WS = Sl) on Page Rank — interconnect hops
// and the per-unit execution-cycle distribution, relative to the baseline.
func (r *Runner) figure2() *table {
	t := newTable("Figure 2: LDM/WS tradeoff on Page Rank (normalized to BASE)",
		labels("design"), nums("%.3f", "hops", "unit-cycles min", "q25", "q75", "max"))
	base := r.run("pr", config.DesignB, nil)
	for _, row := range []struct {
		label string
		d     config.Design
	}{{"BASE", config.DesignB}, {"LDM", config.DesignSm}, {"WS", config.DesignSl}} {
		res := r.run("pr", row.d, nil)
		b := stats.Box(res.Stats.UnitActiveCycles())
		bb := stats.Box(base.Stats.UnitActiveCycles())
		norm := func(x float64) float64 {
			if bb.Max == 0 {
				return 0
			}
			return x / bb.Max
		}
		t.add(row.label,
			float64(res.InterHops)/float64(base.InterHops),
			norm(b.Min), norm(b.Q1), norm(b.Q3), norm(b.Max))
	}
	return t
}

// designNames returns the designs' names, in order.
func designNames(ds []config.Design) []string {
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = d.String()
	}
	return names
}

// figure6 computes the overall speedup of every design over B for all
// eight workloads, plus each design's geomean.
func (r *Runner) figure6() *table {
	t := newTable("Figure 6: Overall speedup (normalized to B)",
		labels("app"), nums("%.2f", designNames(config.AllDesigns)...))
	speedups := map[config.Design][]float64{}
	for _, app := range appsList() {
		base := r.run(app, config.DesignB, nil)
		row := []any{app}
		for _, d := range config.AllDesigns {
			var s float64
			if d == config.DesignH {
				// Speedup of H over B = time(B)/time(H); below 1 when
				// the NDP baseline beats the host.
				s = base.Seconds / r.hostSeconds(app)
			} else {
				res := r.run(app, d, nil)
				s = float64(base.Makespan) / float64(res.Makespan)
			}
			speedups[d] = append(speedups[d], s)
			row = append(row, s)
		}
		t.add(row...)
	}
	row := []any{"geomean"}
	for _, d := range config.AllDesigns {
		row = append(row, stats.Geomean(speedups[d]))
	}
	t.add(row...)
	return t
}

// figure7 computes the four-component energy breakdown normalized to B.
func (r *Runner) figure7() *table {
	t := newTable("Figure 7: Energy breakdown (normalized to B)",
		labels("app", "design"), nums("%.3f", "static", "DRAM", "interconnect", "core+SRAM", "total"))
	for _, app := range appsList() {
		ref := r.run(app, config.DesignB, nil).Energy
		for _, d := range config.NDPDesigns {
			e := r.run(app, d, nil).Energy.NormalizedTo(ref)
			t.add(app, d.String(), e.Static, e.DRAM, e.Interconnect, e.CoreSRAM, e.Total())
		}
	}
	return t
}

// figure8 computes remote accesses (total inter-stack hops) normalized to B.
func (r *Runner) figure8() *table {
	t := newTable("Figure 8: Remote accesses in inter-stack hops (normalized to B)",
		labels("app"), nums("%.3f", designNames(config.NDPDesigns)...))
	for _, app := range figureApps {
		base := r.run(app, config.DesignB, nil)
		row := []any{app}
		for _, d := range config.NDPDesigns {
			res := r.run(app, d, nil)
			row = append(row, float64(res.InterHops)/float64(base.InterHops))
		}
		t.add(row...)
	}
	return t
}

// figure9 computes the workload distribution across NDP cores. The first
// table holds quantiles of per-core active cycles, normalized to each
// design's mean; the second, which only the chart plots, holds Page
// Rank's whole curve: every core's cycles over the mean, sorted ascending,
// one column per design.
func (r *Runner) figure9() []*table {
	quantiles := newTable("Figure 9: Active-cycle distribution across cores (per-design mean = 1)",
		labels("app", "design"), nums("%.2f", "min", "q25", "median", "q75", "max"))
	for _, app := range figureApps {
		for _, d := range config.NDPDesigns {
			res := r.run(app, d, nil)
			mn, q1, md, q3, mx := loadCurve(res.Stats)
			quantiles.add(app, d.String(), mn, q1, md, q3, mx)
		}
	}

	curve := newTable("Figure 9: sorted per-core active cycles on Page Rank (per-design mean = 1)",
		labels("core"), nums("%.3f", designNames(config.NDPDesigns)...))
	var cols [][]float64
	for _, d := range config.NDPDesigns {
		cycles := r.run("pr", d, nil).Stats.CoreActiveCycles()
		var sum int64
		for _, c := range cycles {
			sum += c
		}
		mean := float64(sum) / float64(len(cycles))
		vals := make([]float64, len(cycles))
		for i, c := range cycles {
			vals[i] = float64(c) / mean
		}
		cols = append(cols, vals)
	}
	for i := range cols[0] {
		row := []any{strconv.Itoa(i)}
		for _, vals := range cols {
			row = append(row, vals[i])
		}
		curve.add(row...)
	}
	return []*table{quantiles, curve}
}

// figure10 computes Page Rank speedup and energy at 2x2, 4x4, and 8x8
// stack scales, normalized to B at each scale.
func (r *Runner) figure10() *table {
	t := newTable("Figure 10: Scalability on Page Rank (normalized to B at each scale)",
		labels("scale", "design"), nums("%.2f", "speedup"), nums("%.3f", "energy"))
	for _, mesh := range []int{2, 4, 8} {
		mut := func(c *config.Config) { c.MeshX, c.MeshY = mesh, mesh }
		base := r.run("pr", config.DesignB, mut)
		for _, d := range config.NDPDesigns {
			res := r.run("pr", d, mut)
			t.add(fmt.Sprintf("%dx%d", mesh, mesh), d.String(),
				float64(base.Makespan)/float64(res.Makespan),
				res.Energy.Total()/base.Energy.Total())
		}
	}
	return t
}

// appsList returns the eight workloads of Figures 6 and 7.
func appsList() []string {
	return []string{"pr", "bfs", "sssp", "astar", "gcn", "kmeans", "knn", "spmv"}
}
