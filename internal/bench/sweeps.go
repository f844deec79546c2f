package bench

import (
	"fmt"

	"abndp/internal/config"
)

// figure11 compares skewed vs identical camp-location mappings (design O):
// inter-stack hops normalized to the identical mapping.
func (r *Runner) figure11() *table {
	t := newTable("Figure 11: Skewed vs identical camp mapping (hops, identical = 1)",
		labels("app"), nums("%.3f", "identical", "skewed"))
	for _, app := range figureApps {
		ident := r.run(app, config.DesignO, func(c *config.Config) { c.SkewedMapping = false })
		skew := r.run(app, config.DesignO, nil)
		t.add(app, 1.0, float64(skew.InterHops)/float64(ident.InterHops))
	}
	return t
}

// campCounts are the Figure 12 sweep values of C.
var campCounts = []int{1, 3, 7, 15}

// figure12 sweeps the camp location count C: DRAM and interconnect energy
// normalized to C=1.
func (r *Runner) figure12() *table {
	t := newTable("Figure 12: Camp location count C (DRAM + interconnect energy, C=1 = 1)",
		labels("app"), nums("%.0f", "C"), nums("%.3f", "DRAM", "interconnect", "sum"))
	for _, app := range figureApps {
		mut := func(cc int) func(*config.Config) {
			return func(c *config.Config) { c.CampCount = cc }
		}
		ref := r.run(app, config.DesignO, mut(1))
		refSum := ref.Energy.DRAM + ref.Energy.Interconnect
		for _, cc := range campCounts {
			res := r.run(app, config.DesignO, mut(cc))
			t.add(app, float64(cc),
				res.Energy.DRAM/refSum,
				res.Energy.Interconnect/refSum,
				(res.Energy.DRAM+res.Energy.Interconnect)/refSum)
		}
	}
	return t
}

// figure13 compares the Traveller Cache against a pure SRAM data cache and
// a DRAM cache with in-DRAM tags (same capacity): speedup and dynamic DRAM
// energy normalized to Traveller.
func (r *Runner) figure13() *table {
	t := newTable("Figure 13: Cache implementation (normalized to Traveller Cache)",
		labels("app", "kind"), nums("%.3f", "speedup", "DRAM energy"))
	kinds := []struct {
		label string
		kind  config.CacheKind
	}{
		{"Traveller", config.CacheTraveller},
		{"SRAM", config.CacheSRAM},
		{"DRAM-tags", config.CacheDRAMTags},
	}
	for _, app := range figureApps {
		ref := r.run(app, config.DesignO, nil)
		for _, k := range kinds {
			res := r.run(app, config.DesignO, func(c *config.Config) { c.CacheKind = k.kind })
			t.add(app, k.label,
				float64(ref.Makespan)/float64(res.Makespan),
				res.Energy.DRAM/ref.Energy.DRAM)
		}
	}
	return t
}

// cacheRatios are the Figure 14 sweep values (cache = 1/R of local DRAM).
var cacheRatios = []int{512, 256, 128, 64, 32, 16}

// sweepUnitBytes is the per-unit DRAM capacity used by the capacity and
// associativity sweeps. The bench workloads' per-unit working sets are far
// below the paper's 512 MB units (which hold GB-scale graph inputs), so
// the sweeps scale the memory down to keep the cache-size-to-working-set
// ratios in the same regime the paper explores. Results are normalized
// within each sweep.
const sweepUnitBytes = 4 << 20

// figure14 sweeps the Traveller Cache capacity: hops normalized to the
// smallest cache.
func (r *Runner) figure14() *table {
	var points []string
	for _, ratio := range cacheRatios {
		points = append(points, fmt.Sprintf("1/%d", ratio))
	}
	t := newTable("Figure 14: Traveller Cache capacity (hops, 1/512 = 1)",
		labels("app"), nums("%.3f", points...))
	for _, app := range figureApps {
		mut := func(ratio int) func(*config.Config) {
			return func(c *config.Config) {
				c.UnitBytes = sweepUnitBytes
				c.CacheRatio = ratio
			}
		}
		ref := r.run(app, config.DesignO, mut(cacheRatios[0]))
		row := []any{app}
		for _, ratio := range cacheRatios {
			res := r.run(app, config.DesignO, mut(ratio))
			row = append(row, float64(res.InterHops)/float64(ref.InterHops))
		}
		t.add(row...)
	}
	return t
}

// associativities are the Figure 15 sweep values.
var associativities = []int{1, 2, 4, 8, 16}

// figure15 sweeps the cache associativity: hops normalized to
// direct-mapped.
func (r *Runner) figure15() *table {
	var points []string
	for _, ways := range associativities {
		points = append(points, fmt.Sprintf("%d-way", ways))
	}
	t := newTable("Figure 15: Traveller Cache associativity (hops, 1-way = 1)",
		labels("app"), nums("%.3f", points...))
	for _, app := range figureApps {
		mut := func(ways int) func(*config.Config) {
			return func(c *config.Config) {
				c.UnitBytes = sweepUnitBytes
				c.CacheRatio = 512 // small cache so conflicts matter
				c.CacheWays = ways
			}
		}
		ref := r.run(app, config.DesignO, mut(associativities[0]))
		row := []any{app}
		for _, ways := range associativities {
			res := r.run(app, config.DesignO, mut(ways))
			row = append(row, float64(res.InterHops)/float64(ref.InterHops))
		}
		t.add(row...)
	}
	return t
}

// bypassProbs are the Figure 16 sweep values.
var bypassProbs = []float64{0, 0.2, 0.4, 0.6, 0.8}

// figure16 sweeps the probabilistic-insertion bypass probability: DRAM and
// interconnect energy normalized to bypass 0.
func (r *Runner) figure16() *table {
	t := newTable("Figure 16: Bypass probability (DRAM + interconnect energy, p=0 = 1)",
		labels("app"), nums("%.1f", "p"), nums("%.3f", "DRAM", "interconnect", "sum"))
	for _, app := range figureApps {
		mut := func(p float64) func(*config.Config) {
			return func(c *config.Config) { c.BypassProb = p }
		}
		ref := r.run(app, config.DesignO, mut(0))
		refSum := ref.Energy.DRAM + ref.Energy.Interconnect
		for _, p := range bypassProbs {
			res := r.run(app, config.DesignO, mut(p))
			t.add(app, p,
				res.Energy.DRAM/refSum,
				res.Energy.Interconnect/refSum,
				(res.Energy.DRAM+res.Energy.Interconnect)/refSum)
		}
	}
	return t
}

// hybridAlphas are the Figure 17 sweep values of B = alpha * Dinter.
var hybridAlphas = []float64{0, 1, 2, 3, 4, 5, 6}

// figure17 sweeps the hybrid scheduling weight: hops and speedup
// normalized to alpha = 0 (pure lowest-distance behavior).
func (r *Runner) figure17() *table {
	t := newTable("Figure 17: Hybrid weight B = alpha*Dinter (normalized to alpha=0)",
		labels("app"), nums("%.0f", "alpha"), nums("%.3f", "hops", "speedup"))
	for _, app := range figureApps {
		mut := func(a float64) func(*config.Config) {
			return func(c *config.Config) { c.HybridAlpha = a }
		}
		ref := r.run(app, config.DesignO, mut(0))
		for _, a := range hybridAlphas {
			res := r.run(app, config.DesignO, mut(a))
			t.add(app, a,
				float64(res.InterHops)/float64(ref.InterHops),
				float64(ref.Makespan)/float64(res.Makespan))
		}
	}
	return t
}

// exchangeIntervals are the Figure 18 sweep values in cycles. The paper
// sweeps 25k-800k against ~100x longer executions; this range spans the
// same exchanges-per-run ratios for the bench workload sizes.
var exchangeIntervals = []int64{1250, 2500, 5000, 10000, 20000, 40000}

// figure18 sweeps the workload exchange interval: speedup normalized to
// the shortest interval.
func (r *Runner) figure18() *table {
	var points []string
	for _, iv := range exchangeIntervals {
		points = append(points, fmt.Sprintf("%dk", iv/1000))
	}
	t := newTable("Figure 18: Workload exchange interval (speedup, shortest = 1)",
		labels("app"), nums("%.3f", points...))
	for _, app := range figureApps {
		mut := func(iv int64) func(*config.Config) {
			return func(c *config.Config) { c.ExchangeInterval = iv }
		}
		ref := r.run(app, config.DesignO, mut(exchangeIntervals[0]))
		row := []any{app}
		for _, iv := range exchangeIntervals {
			res := r.run(app, config.DesignO, mut(iv))
			row = append(row, float64(ref.Makespan)/float64(res.Makespan))
		}
		t.add(row...)
	}
	return t
}
