// Package abndp is an architectural simulator and reproduction of
// "ABNDP: Co-optimizing Data Access and Load Balance in Near-Data
// Processing" (Tian, Chen, Gao — ASPLOS 2023).
//
// It models a 3D-stacked-memory NDP system (by default 4x4 stacks x 8 NDP
// units) running task-based data-intensive workloads, and implements both
// of the paper's contributions — the distributed Traveller Cache with
// skewed camp locations, and the hybrid task scheduling policy — alongside
// every baseline design of Table 2.
//
// Quick start:
//
//	cfg := abndp.DefaultConfig()
//	res, err := abndp.Run("pr", abndp.DesignO, cfg, abndp.Params{})
//	if err != nil { ... }
//	fmt.Printf("cycles=%d hops=%d energy=%.1f uJ\n",
//		res.Makespan, res.InterHops, res.Energy.Total()/1e6)
//
// The seven designs (Table 2) are DesignH (host CPU only), DesignB
// (co-locate with the main element), DesignSm (lowest-distance), DesignSl
// (lowest-distance + work stealing), DesignSh (hybrid scheduling), DesignC
// (Traveller Cache with lowest-distance mapping), and DesignO (full ABNDP).
package abndp

import (
	"fmt"
	"io"

	"abndp/internal/apps"
	"abndp/internal/config"
	"abndp/internal/energy"
	"abndp/internal/fault"
	"abndp/internal/host"
	"abndp/internal/mem"
	"abndp/internal/ndp"
	"abndp/internal/obs"
	"abndp/internal/stats"
	"abndp/internal/task"
	"abndp/internal/topology"
)

// Config holds every system parameter (Table 1 defaults via DefaultConfig).
type Config = config.Config

// Design identifies one of the evaluated system designs (Table 2).
type Design = config.Design

// CacheKind selects the remote-data cache implementation (Figure 13).
type CacheKind = config.CacheKind

// Table 2 designs.
const (
	DesignH  = config.DesignH
	DesignB  = config.DesignB
	DesignSm = config.DesignSm
	DesignSl = config.DesignSl
	DesignSh = config.DesignSh
	DesignC  = config.DesignC
	DesignO  = config.DesignO
)

// Cache kinds for the Figure 13 ablation.
const (
	CacheTraveller = config.CacheTraveller
	CacheSRAM      = config.CacheSRAM
	CacheDRAMTags  = config.CacheDRAMTags
)

// Replacement selects the Traveller Cache victim policy.
type Replacement = config.Replacement

// Replacement policies (the paper ships random; LRU checks §4.4's claim).
const (
	ReplaceRandom = config.ReplaceRandom
	ReplaceLRU    = config.ReplaceLRU
)

// AllDesigns lists every design in Table 2 order; NDPDesigns omits H.
var (
	AllDesigns = config.AllDesigns
	NDPDesigns = config.NDPDesigns
)

// Params sizes a workload (zero values take per-workload defaults).
type Params = apps.Params

// App is a workload ported to the task-based execution model. Use NewApp
// for the built-in workloads or implement the interface for custom ones.
type App = ndp.App

// Result summarizes one simulated run.
type Result = ndp.Result

// EnergyBreakdown is the Figure 7 four-component energy split.
type EnergyBreakdown = energy.Breakdown

// SystemStats exposes the per-unit counters of a run.
type SystemStats = stats.System

// HostResult is the design-H execution estimate.
type HostResult = host.Result

// FaultPlan declares deterministic fault injection for a run; assign it to
// Config.Faults. The zero value injects nothing and is guaranteed
// zero-cost. See ParseFaults for the compact spec grammar.
type FaultPlan = fault.Plan

// FaultCounters are the recovery-event totals of a faulty run
// (Result.Stats.Faults).
type FaultCounters = stats.FaultCounters

// ParseFaults parses the semicolon-separated fault spec grammar of
// `abndpsim -faults` (see docs/FAULTS.md):
//
//	dram:PROB[:RETRIES] ; slow:UNITS:CORE[:CHAN][@FROM[-UNTIL]] ;
//	kill:UNITS@CYCLE ; link:STACK:DIR@CYCLE ; retry:N ; seed:N
func ParseFaults(spec string) (FaultPlan, error) { return fault.Parse(spec) }

// The following aliases let users implement custom workloads against the
// App interface without access to the internal packages.

// Task is one unit of work in the bulk-synchronous task model (§3.1).
type Task = task.Task

// Hint carries a task's primary-data addresses and optional workload.
type Hint = task.Hint

// Line is a cacheline address.
type Line = mem.Line

// Array is a primary-data array laid out across the NDP units' DRAM.
type Array = mem.Array

// UnitID identifies one NDP unit.
type UnitID = topology.UnitID

// StackID identifies one memory stack.
type StackID = topology.StackID

// System is the simulated NDP machine handed to App.Setup.
type System = ndp.System

// ExecCtx is the execution context handed to App.Execute.
type ExecCtx = ndp.ExecCtx

// FunctionalProfile characterizes a workload independent of timing.
type FunctionalProfile = ndp.FunctionalResult

// Placement selects how array elements spread across units.
const (
	Interleave = mem.Interleave
	Blocked    = mem.Blocked
)

// DefaultConfig returns the Table 1 system configuration.
func DefaultConfig() Config { return config.Default() }

// Workloads lists the built-in workload names in Figure 6 order.
func Workloads() []string { return append([]string(nil), apps.Names...) }

// ParseDesign converts a design name ("B", "Sm", "O", ...) to a Design.
func ParseDesign(s string) (Design, error) { return config.ParseDesign(s) }

// NewApp builds a built-in workload by name.
func NewApp(name string, p Params) (App, error) { return apps.New(name, p) }

// Run simulates the named workload under a design. For DesignH it returns
// an error; use RunHost.
func Run(workload string, d Design, cfg Config, p Params) (*Result, error) {
	app, err := apps.New(workload, p)
	if err != nil {
		return nil, err
	}
	return RunApp(app, d, cfg)
}

// RunApp simulates a (possibly custom) workload under a design.
func RunApp(app App, d Design, cfg Config) (*Result, error) {
	return RunAppTraced(app, d, cfg, nil)
}

// TaskTrace describes one completed task (see RunAppTraced).
type TaskTrace = ndp.TaskTrace

// RunAppTraced is RunApp with an optional per-task completion callback for
// external analysis tooling (cmd/abndpsim -trace writes these as JSONL).
func RunAppTraced(app App, d Design, cfg Config, tracer func(TaskTrace)) (*Result, error) {
	if d == DesignH {
		return nil, fmt.Errorf("abndp: design H is the host baseline; use RunHost")
	}
	applied := d.Apply(cfg)
	if err := applied.Validate(); err != nil {
		return nil, err
	}
	sys := ndp.NewSystem(cfg, d)
	if tracer != nil {
		sys.SetTaskTracer(tracer)
	}
	return sys.Run(app), nil
}

// Observer bundles the optional observability sinks of a run: a Perfetto
// tracer, phase-resolved metrics, and the counter-sampling interval.
// Observability is strictly read-only — simulated results are
// byte-identical with and without it.
type Observer = obs.Observer

// Tracer streams a Chrome trace-event / Perfetto JSON trace.
type Tracer = obs.Tracer

// ObsMetrics holds the phase-resolved metric histograms of a run.
type ObsMetrics = obs.Metrics

// NewTracer returns a Tracer writing Perfetto JSON to w, converting core
// cycles at coreGHz (Config.CoreGHz) to trace microseconds. Call Close
// when the run finishes to terminate the JSON document and flush.
func NewTracer(w io.Writer, coreGHz float64) *Tracer { return obs.NewTracer(w, coreGHz) }

// StartDebugServer serves net/http/pprof on addr (e.g. ":6060") in the
// background, returning the bound address. A bare run has no metric
// series of its own, so /metrics shows only the go_* runtime gauges and
// /debug/vars an empty object.
func StartDebugServer(addr string) (string, error) {
	return obs.StartDebugServer(addr, obs.NewRegistry())
}

// RunAppObserved is RunApp with the observability subsystem installed:
// o.Trace receives the Perfetto trace, o.Metrics (when non-nil) ends up in
// Result.Stats.Obs, and tracer (when non-nil) receives per-task
// completion records exactly as in RunAppTraced.
func RunAppObserved(app App, d Design, cfg Config, o *Observer, tracer func(TaskTrace)) (*Result, error) {
	if d == DesignH {
		return nil, fmt.Errorf("abndp: design H is the host baseline; use RunHost")
	}
	applied := d.Apply(cfg)
	if err := applied.Validate(); err != nil {
		return nil, err
	}
	sys := ndp.NewSystem(cfg, d)
	if tracer != nil {
		sys.SetTaskTracer(tracer)
	}
	sys.SetObserver(o)
	return sys.Run(app), nil
}

// NewSystem builds (but does not run) a simulated NDP machine for the
// given design — useful for inspecting the topology, camp mapping, and
// address space (see cmd/abndpinspect), or for driving App lifecycles
// manually via System.Run.
func NewSystem(cfg Config, d Design) (*System, error) {
	if d == DesignH {
		return nil, fmt.Errorf("abndp: design H is the host baseline; use RunHost")
	}
	applied := d.Apply(cfg)
	if err := applied.Validate(); err != nil {
		return nil, err
	}
	return ndp.NewSystem(cfg, d), nil
}

// RunHost estimates the named workload's execution on the host-only
// baseline H.
func RunHost(workload string, cfg Config, p Params) (HostResult, error) {
	app, err := apps.New(workload, p)
	if err != nil {
		return HostResult{}, err
	}
	fr := ndp.RunFunctional(cfg, app)
	return host.Run(host.Default(), fr), nil
}

// Characterize runs a workload functionally (no timing model), returning
// its instruction, access, and footprint profile.
func Characterize(workload string, cfg Config, p Params) (*ndp.FunctionalResult, error) {
	app, err := apps.New(workload, p)
	if err != nil {
		return nil, err
	}
	return ndp.RunFunctional(cfg, app), nil
}
