package bench

import (
	"fmt"

	"abndp/internal/config"
	"abndp/internal/fault"
)

// resilienceScenario is one fault plan of the sweep, identified by name.
type resilienceScenario struct {
	name string
	spec string
}

// resilienceScenarios returns the sweep's fault plans. The kill and link
// cycles sit mid-run for the sweep's workload at each mode's sizing, so
// dead units catch queued and in-flight work rather than firing after the
// run drains.
func (r *Runner) resilienceScenarios() []resilienceScenario {
	k1, k2, l := int64(2500), int64(3200), int64(1200)
	if !r.quick {
		k1, k2, l = 25000, 32000, 12000
	}
	return []resilienceScenario{
		{"healthy", ""},
		{"dram 1e-3", "dram:0.001:4"},
		{"4 slow 4x", "slow:9:4:4;slow:35:4:4;slow:70:4:4;slow:104:4:4"},
		{"2 dead units", fmt.Sprintf("kill:70@%d;kill:9@%d", k1, k2)},
		{"2 dead links", fmt.Sprintf("link:5:e@%d;link:10:n@%d", l, l)},
	}
}

// resilience sweeps the fault scenarios over the scheduling designs on the
// PageRank workload: per design, each scenario's makespan inflation over
// that design's healthy run, alongside the recovery-event counts. A row
// with a verdict other than "-" gave up (unrecoverable) at the reported
// makespan cycle.
func (r *Runner) resilience() *table {
	t := newTable("Resilience: injected faults vs graceful degradation (pr; slowdown vs same-design healthy)",
		labels("design", "scenario"), nums("%.3f", "slowdown"),
		nums("%.0f", "dram retries", "reexec", "moved", "rerouted"), labels("verdict"))
	designs := []config.Design{config.DesignB, config.DesignSm, config.DesignSl, config.DesignSh, config.DesignO}
	for _, d := range designs {
		healthy := r.run("pr", d, nil)
		for _, sc := range r.resilienceScenarios() {
			res := r.run("pr", d, func(c *config.Config) {
				if sc.spec != "" {
					c.Faults = fault.MustParse(sc.spec)
				}
			})
			verdict := "-"
			if res.Unrecoverable != "" {
				verdict = res.Unrecoverable
			}
			f := res.Stats.Faults
			t.add(d.String(), sc.name,
				float64(res.Makespan)/float64(healthy.Makespan),
				float64(f.DRAMRetries), float64(f.TasksReExecuted), float64(f.TasksRedistributed), float64(f.ReroutedMsgs),
				verdict)
		}
	}
	return t
}
