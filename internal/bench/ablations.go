package bench

import (
	"fmt"

	"abndp/internal/apps"
	"abndp/internal/config"
	"abndp/internal/ndp"
)

// Ablations beyond the paper's figures, each checking a design-choice claim
// made in the paper's text:
//
//   - ablrepl:  §4.4 "little performance difference between an LRU and a
//     random policy" — random vs LRU Traveller replacement.
//   - ablprobe: §4.3 "it is usually unnecessary to probe other distant camp
//     locations" — nearest-only vs probe-all-camps miss handling.
//   - ablhint:  §3.1 "the estimation only needs to be approximate" —
//     estimated vs exact workload hints.
//   - abltopo:  §2.1 topology-independence — mesh vs torus inter-stack
//     network under design O vs B.

// runP is run with an additional workload-parameter mutation.
func (r *Runner) runP(app string, d config.Design, cfgMut func(*config.Config), pMut func(*apps.Params)) *ndp.Result {
	cfg := r.base
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	p := r.params(app)
	if pMut != nil {
		pMut(&p)
	}
	return r.runCfg(runSpec{app: app, d: d, cfg: cfg, p: p})
}

// ablationReplacement compares random vs LRU Traveller Cache replacement.
func (r *Runner) ablationReplacement() *table {
	t := newTable("Ablation: Traveller replacement policy (§4.4; normalized to random)",
		labels("app", "policy"), nums("%.3f", "speedup", "hops"))
	for _, app := range figureApps {
		ref := r.run(app, config.DesignO, nil)
		for _, repl := range []config.Replacement{config.ReplaceRandom, config.ReplaceLRU} {
			res := r.run(app, config.DesignO, func(c *config.Config) { c.Replacement = repl })
			t.add(app, repl.String(),
				float64(ref.Makespan)/float64(res.Makespan),
				float64(res.InterHops)/float64(ref.InterHops))
		}
	}
	return t
}

// ablationProbeAll compares nearest-camp-only probing against chasing
// every camp in distance order before going home.
func (r *Runner) ablationProbeAll() *table {
	t := newTable("Ablation: nearest-only vs probe-all camp misses (§4.3; normalized to nearest)",
		labels("app", "policy"), nums("%.3f", "speedup", "hops", "cache hit rate"))
	for _, app := range figureApps {
		ref := r.run(app, config.DesignO, nil)
		for _, all := range []bool{false, true} {
			name := "nearest"
			if all {
				name = "probe-all"
			}
			res := r.run(app, config.DesignO, func(c *config.Config) { c.ProbeAllCamps = all })
			t.add(app, name,
				float64(ref.Makespan)/float64(res.Makespan),
				float64(res.InterHops)/float64(ref.InterHops),
				res.Stats.CacheHitRate())
		}
	}
	return t
}

// ablationHints compares estimated workload hints against exact ones.
func (r *Runner) ablationHints() *table {
	t := newTable("Ablation: estimated vs exact workload hints (§3.1; normalized to estimated)",
		labels("app", "hints"), nums("%.3f", "speedup"), nums("%.2f", "imbalance"))
	for _, app := range figureApps {
		ref := r.run(app, config.DesignO, nil)
		for _, perfect := range []bool{false, true} {
			name := "estimated"
			if perfect {
				name = "exact"
			}
			res := r.runP(app, config.DesignO, nil, func(p *apps.Params) { p.PerfectHints = perfect })
			t.add(app, name,
				float64(ref.Makespan)/float64(res.Makespan),
				res.Stats.ImbalanceRatio())
		}
	}
	return t
}

// ablationStealing compares random victim selection (Blumofe-Leiserson)
// against snapshot-informed victim selection for design Sl.
func (r *Runner) ablationStealing() *table {
	t := newTable("Ablation: random vs snapshot-informed work stealing (design Sl; normalized to random)",
		labels("app", "victim policy"), nums("%.3f", "speedup"), nums("%.2f", "imbalance"), nums("%.3f", "hops"))
	for _, app := range figureApps {
		ref := r.run(app, config.DesignSl, nil)
		for _, informed := range []bool{false, true} {
			name := "random"
			if informed {
				name = "informed"
			}
			res := r.run(app, config.DesignSl, func(c *config.Config) { c.InformedStealing = informed })
			t.add(app, name,
				float64(ref.Makespan)/float64(res.Makespan),
				res.Stats.ImbalanceRatio(),
				float64(res.InterHops)/float64(ref.InterHops))
		}
	}
	return t
}

// ablationWindow compares instantaneous task placement against the
// asynchronous hardware scheduling window of Figure 4 (several window
// sizes at the default 64-cycle scheduler period).
func (r *Runner) ablationWindow() *table {
	t := newTable("Ablation: scheduling window (Figure 4; design O; normalized to instantaneous)",
		labels("app", "window"), nums("%.3f", "speedup"))
	for _, app := range figureApps {
		ref := r.run(app, config.DesignO, nil)
		for _, win := range []int{0, 2, 8, 32} {
			name := "instant"
			if win > 0 {
				name = fmt.Sprintf("%d/period", win)
			}
			res := r.run(app, config.DesignO, func(c *config.Config) { c.SchedulingWindow = win })
			t.add(app, name, float64(ref.Makespan)/float64(res.Makespan))
		}
	}
	return t
}

// ablationTopology compares the O-over-B gain on a mesh and on a torus.
func (r *Runner) ablationTopology() *table {
	t := newTable("Ablation: mesh vs torus inter-stack network (O speedup over B on each)",
		labels("app", "topology"), nums("%.3f", "O/B speedup", "O hops/B hops"))
	for _, app := range figureApps {
		for _, torus := range []bool{false, true} {
			name := "mesh"
			if torus {
				name = "torus"
			}
			mut := func(c *config.Config) { c.Torus = torus }
			base := r.run(app, config.DesignB, mut)
			opt := r.run(app, config.DesignO, mut)
			t.add(app, name,
				float64(base.Makespan)/float64(opt.Makespan),
				float64(opt.InterHops)/float64(base.InterHops))
		}
	}
	return t
}
