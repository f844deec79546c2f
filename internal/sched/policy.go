package sched

import (
	"fmt"

	"abndp/internal/config"
	"abndp/internal/task"
	"abndp/internal/topology"
)

// PlaceFunc chooses the execution unit for t, scheduled by origin's
// scheduler. It returns the chosen unit (-1 when no live unit can accept
// the task) plus the memory-cost and load score components of the chosen
// unit for the observability hook and the audit layer (policies that do
// not evaluate a component report 0 for it). A PlaceFunc must be
// deterministic: ties break toward the main element's home, then strict
// improvement in unit-ID order, exactly like the paper policies.
type PlaceFunc func(s *Scheduler, t *task.Task, origin topology.UnitID) (target topology.UnitID, memCost, loadTerm float64)

// placeFunc returns the place function of a placement policy.
func placeFunc(p config.Policy) PlaceFunc {
	switch p {
	case config.PolicyHome:
		return (*Scheduler).placeHome
	case config.PolicyLowestDist:
		return (*Scheduler).placeLowestDistance
	case config.PolicyHybrid:
		return (*Scheduler).placeHybrid
	case config.PolicyLoadOnly:
		return (*Scheduler).placeLoadOnly
	}
	panic(fmt.Sprintf("sched: unknown policy %q (one of %v)", p, config.Policies))
}

// PolicyFor returns the placement policy a Table 2 design uses. Design H
// has no NDP scheduler and is rejected by the runtime before this point.
func PolicyFor(d config.Design) config.Policy {
	switch {
	case d == config.DesignB:
		return config.PolicyHome
	case d.UsesHybrid():
		return config.PolicyHybrid
	default:
		return config.PolicyLowestDist
	}
}

// PolicyName resolves the effective policy for a configuration: an
// explicit Config.SchedPolicy wins, otherwise the design's Table 2 policy.
func PolicyName(cfg *config.Config, d config.Design) config.Policy {
	if cfg.SchedPolicy != "" {
		return cfg.SchedPolicy
	}
	return PolicyFor(d)
}

// Describe lists the placement policies for CLI help, one line each.
func Describe() string {
	return `  home         co-locate with the main data element's home unit (design B)
  hybrid       argmin of costmem + B*costload (Sh, O); B = HybridAlpha * Dinter
  loadonly     argmin of the load term alone, ignoring data distance (the
               load-only corner of the co-optimization ablation)
  lowestdist   minimize the mean data distance over all hint addresses (Sm, Sl, C)`
}
