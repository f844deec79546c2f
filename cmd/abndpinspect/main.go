// Command abndpinspect visualizes the simulated NDP machine: the stack
// mesh and camp-group layout, camp locations of individual cachelines, the
// inter-stack hop matrix, and per-unit load/traffic heat maps of a run.
//
// Usage:
//
//	abndpinspect layout                     # stacks, groups, unit ranges
//	abndpinspect camps -addr 0x12345640     # camp locations of one line
//	abndpinspect hops                       # stack hop-distance matrix
//	abndpinspect heat -app pr -design O     # per-unit active-cycle heat map
//	abndpinspect timeline -app pr           # core utilization over time
//	abndpinspect trace -in tasks.jsonl      # per-unit summary of a -trace recording
//	abndpinspect queues -in trace.json      # counter tracks of a -perfetto recording
//	abndpinspect faults -spec "kill:70@25000;slow:9:4"  # validate + print a fault plan
//	abndpinspect checkpoints -app pr -scale 10          # checkpoint-store shards of a knob sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"abndp"
	"abndp/internal/ckpt"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		mesh   = fs.Int("mesh", 4, "stack mesh side")
		camps  = fs.Int("campcount", 3, "camp locations per line (C)")
		torus  = fs.Bool("torus", false, "torus inter-stack network")
		addr   = fs.String("addr", "0x1000", "physical address (camps command)")
		appN   = fs.String("app", "pr", "workload (heat command)")
		design = fs.String("design", "O", "design (heat command)")
		scale  = fs.Int("scale", 0, "workload scale (heat command)")
		metric = fs.String("metric", "cycles", "heat metric: cycles, tasks, dram, hops")
		in     = fs.String("in", "", "recorded trace file (trace: JSONL from -trace; queues: JSON from -perfetto)")
		spec   = fs.String("spec", "", "fault spec to validate and print (faults command)")
	)
	if err := fs.Parse(os.Args[2:]); err != nil {
		fatal(err)
	}

	cfg := abndp.DefaultConfig()
	cfg.MeshX, cfg.MeshY = *mesh, *mesh
	cfg.CampCount = *camps
	cfg.Torus = *torus

	switch cmd {
	case "layout":
		layout(cfg)
	case "camps":
		showCamps(cfg, *addr)
	case "hops":
		hops(cfg)
	case "heat":
		heat(cfg, *appN, *design, *scale, *metric)
	case "timeline":
		timeline(cfg, *appN, *scale)
	case "trace":
		if *in == "" {
			fatal(fmt.Errorf("trace: -in <tasks.jsonl> required (record with abndpsim -trace)"))
		}
		traceSummary(*in)
	case "queues":
		if *in == "" {
			fatal(fmt.Errorf("queues: -in <trace.json> required (record with abndpsim -perfetto)"))
		}
		queuesSummary(*in)
	case "faults":
		if *spec == "" {
			fatal(fmt.Errorf("faults: -spec <fault spec> required (see docs/FAULTS.md)"))
		}
		showFaults(cfg, *spec)
	case "checkpoints":
		checkpoints(cfg, *appN, *design, *scale)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: abndpinspect {layout|camps|hops|heat|timeline|trace|queues|faults|checkpoints} [flags]")
	os.Exit(2)
}

// checkpoints demonstrates the checkpoint/delta re-simulation store: it
// runs a short HybridAlpha knob sweep with a store attached — every point
// shares one prefix shard, so later points reuse the first point's
// placement cost vectors — then lists the store's shards and counters
// (the same numbers abndpbench reports in the metrics JSON; docs/PERF.md).
func checkpoints(cfg abndp.Config, appName, designName string, scale int) {
	d, err := abndp.ParseDesign(designName)
	if err != nil {
		fatal(err)
	}
	store := ckpt.NewStore(0)
	alphas := []float64{0, 2, 4}
	for _, a := range alphas {
		c := cfg
		c.HybridAlpha = a
		sys, err := abndp.NewSystem(c, d)
		if err != nil {
			fatal(err)
		}
		sys.SetCheckpoint(store.Shard(sys.CheckpointKey(appName)))
		app, err := abndp.NewApp(appName, abndp.Params{Scale: scale})
		if err != nil {
			fatal(err)
		}
		sys.Run(app)
	}
	st := store.Stats()
	fmt.Printf("checkpoint store after a %d-point HybridAlpha sweep of %s on design %s:\n",
		len(alphas), appName, d)
	fmt.Printf("  %d shard(s), %d entries, %.1f KiB of %.0f MiB cap\n",
		st.Shards, st.Entries, float64(st.Bytes)/(1<<10), float64(st.CapBytes)/(1<<20))
	fmt.Printf("  %d hits, %d misses, %d inserts, %d rejects, %d evictions\n\n",
		st.Hits, st.Misses, st.Inserts, st.Rejects, st.Evictions)
	for _, e := range store.Entries() {
		fmt.Printf("  shard %s\n", e.Key)
		fmt.Printf("    %d cost vectors, %.1f KiB, %d hits / %d misses (last use #%d)\n",
			e.Entries, float64(e.Bytes)/(1<<10), e.Hits, e.Misses, e.LastUse)
	}
	if st.Hits == 0 {
		fmt.Println("\n  note: no hits — this design's scheduler does not consult cost vectors")
	}
}

// showFaults parses and validates a fault spec against the configured
// machine and prints the fully resolved plan: every clause expanded, the
// effective retry budgets, and the canonical cache key the plan hashes to.
func showFaults(cfg abndp.Config, spec string) {
	plan, err := abndp.ParseFaults(spec)
	if err != nil {
		fatal(err)
	}
	check := cfg
	check.Faults = plan
	if err := check.Validate(); err != nil {
		fatal(err)
	}
	fmt.Printf("plan: %s\n", plan.String())
	fmt.Printf("  machine        %dx%d stacks, %d units\n", cfg.MeshX, cfg.MeshY, cfg.Units())
	fmt.Printf("  dram errors    p=%g per access, <=%d ECC retries\n",
		plan.DRAMErrProb, plan.EffectiveDRAMRetryMax())
	fmt.Printf("  task retries   <=%d re-executions before unrecoverable\n", plan.EffectiveTaskRetryMax())
	fmt.Printf("  seed           %d\n", plan.Seed)
	for _, s := range plan.Stragglers {
		window := "always"
		if s.From > 0 || s.Until > 0 {
			window = fmt.Sprintf("cycles [%d, %d)", s.From, s.Until)
			if s.Until == 0 {
				window = fmt.Sprintf("cycles [%d, inf)", s.From)
			}
		}
		fmt.Printf("  straggler      unit %d: core %gx, channel %gx, %s\n",
			s.Unit, s.CoreFactor, s.ChanFactor, window)
	}
	for _, k := range plan.UnitKills {
		fmt.Printf("  unit kill      unit %d at cycle %d\n", k.Unit, k.Cycle)
	}
	for _, k := range plan.LinkKills {
		fmt.Printf("  link kill      stack %d dir %s at cycle %d\n", k.Stack, dirName(k.Dir), k.Cycle)
	}
	fmt.Printf("  cache key      %s\n", plan.Key())
}

// dirName names a mesh link direction (the fault package's layout).
func dirName(d int) string {
	switch d {
	case 0:
		return "+x (east)"
	case 1:
		return "-x (west)"
	case 2:
		return "+y (south)"
	case 3:
		return "-y (north)"
	}
	return fmt.Sprintf("dir %d", d)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "abndpinspect:", err)
	os.Exit(1)
}

func newSystem(cfg abndp.Config) *abndp.System {
	sys, err := abndp.NewSystem(cfg, abndp.DesignO)
	if err != nil {
		fatal(err)
	}
	return sys
}

// layout prints the stack mesh with each stack's ID, group, and unit range.
func layout(cfg abndp.Config) {
	sys := newSystem(cfg)
	topo := sys.Topo
	fmt.Printf("%dx%d stacks, %d units/stack, %d units total, %d groups (C=%d), diameter %d\n\n",
		cfg.MeshX, cfg.MeshY, cfg.UnitsPerStack, topo.Units(), topo.Groups(),
		cfg.CampCount, topo.Diameter())
	// Invert coord -> stack.
	at := make(map[[2]int]int)
	for s := 0; s < topo.Stacks(); s++ {
		x, y := topo.Coord(abndp.StackID(s))
		at[[2]int{x, y}] = s
	}
	for y := 0; y < cfg.MeshY; y++ {
		for x := 0; x < cfg.MeshX; x++ {
			s := at[[2]int{x, y}]
			lo := s * cfg.UnitsPerStack
			hi := lo + cfg.UnitsPerStack - 1
			g := topo.GroupOf(abndp.UnitID(lo))
			fmt.Printf("[s%02d g%d u%03d-%03d] ", s, g, lo, hi)
		}
		fmt.Println()
	}
}

// showCamps prints the home and camp locations of one cacheline.
func showCamps(cfg abndp.Config, addrStr string) {
	sys := newSystem(cfg)
	a, err := strconv.ParseUint(addrStr, 0, 64)
	if err != nil {
		fatal(fmt.Errorf("bad address %q: %w", addrStr, err))
	}
	line := abndp.Line(a >> 6)
	locs := sys.Camps.Locations(line)
	fmt.Printf("address %#x -> line %#x\n", a, uint64(line))
	for i, u := range locs {
		role := fmt.Sprintf("camp (group %d)", sys.Topo.GroupOf(u))
		if i == 0 {
			role = fmt.Sprintf("HOME (group %d)", sys.Topo.GroupOf(u))
		}
		fmt.Printf("  unit %3d  stack %2d  %s\n", u, sys.Topo.StackOf(u), role)
	}
}

// hops prints the stack-to-stack hop matrix.
func hops(cfg abndp.Config) {
	sys := newSystem(cfg)
	topo := sys.Topo
	fmt.Printf("     ")
	for b := 0; b < topo.Stacks(); b++ {
		fmt.Printf("%3d", b)
	}
	fmt.Println()
	for a := 0; a < topo.Stacks(); a++ {
		fmt.Printf("s%02d  ", a)
		for b := 0; b < topo.Stacks(); b++ {
			fmt.Printf("%3d", topo.StackHops(abndp.StackID(a), abndp.StackID(b)))
		}
		fmt.Println()
	}
}

// heat runs a workload and prints a per-unit heat map of the chosen metric,
// arranged by stack position (units of a stack on one row segment).
func heat(cfg abndp.Config, appName, designName string, scale int, metric string) {
	d, err := abndp.ParseDesign(designName)
	if err != nil {
		fatal(err)
	}
	res, err := abndp.Run(appName, d, cfg, abndp.Params{Scale: scale})
	if err != nil {
		fatal(err)
	}
	vals := make([]float64, len(res.Stats.Units))
	for i := range res.Stats.Units {
		u := &res.Stats.Units[i]
		switch metric {
		case "cycles":
			for _, c := range u.ActiveCycles {
				vals[i] += float64(c)
			}
		case "tasks":
			vals[i] = float64(u.TasksRun)
		case "dram":
			vals[i] = float64(u.DRAMReads + u.DRAMWrites)
		case "hops":
			vals[i] = float64(u.InterHops)
		default:
			fatal(fmt.Errorf("unknown metric %q", metric))
		}
	}
	var maxV float64
	for _, v := range vals {
		if v > maxV {
			maxV = v
		}
	}
	fmt.Printf("app=%s design=%s metric=%s (each cell one unit; . < - < = < # < @ of max %.0f)\n\n",
		appName, d, metric, maxV)
	shades := []byte{'.', '-', '=', '#', '@'}
	sys := newSystem(cfg)
	at := make(map[[2]int]int)
	for s := 0; s < sys.Topo.Stacks(); s++ {
		x, y := sys.Topo.Coord(abndp.StackID(s))
		at[[2]int{x, y}] = s
	}
	for y := 0; y < cfg.MeshY; y++ {
		for x := 0; x < cfg.MeshX; x++ {
			s := at[[2]int{x, y}]
			for k := 0; k < cfg.UnitsPerStack; k++ {
				v := vals[s*cfg.UnitsPerStack+k]
				idx := 0
				if maxV > 0 {
					idx = int(v / maxV * float64(len(shades)))
					if idx >= len(shades) {
						idx = len(shades) - 1
					}
				}
				fmt.Printf("%c", shades[idx])
			}
			fmt.Printf("  ")
		}
		fmt.Println()
	}
	fmt.Printf("\nimbalance %.2fx, makespan %d cycles, %d hops\n",
		res.Stats.ImbalanceRatio(), res.Makespan, res.InterHops)
}

// timeline runs a workload under every design and prints core utilization
// over time as one sparkline row per design, exposing the tail/hotspot
// behavior each scheduler produces.
func timeline(cfg abndp.Config, appName string, scale int) {
	shades := []rune(" .:-=+*#%@")
	maxCores := cfg.Units() * cfg.CoresPerUnit
	fmt.Printf("app=%s: busy cores over time (%d cores; each column ~1/80 of that design's run)\n\n", appName, maxCores)
	for _, d := range abndp.NDPDesigns {
		app, err := abndp.NewApp(appName, abndp.Params{Scale: scale})
		if err != nil {
			fatal(err)
		}
		sys, err := abndp.NewSystem(cfg, d)
		if err != nil {
			fatal(err)
		}
		// Pick the interval so every run yields ~80 columns.
		probe, err := abndp.Run(appName, d, cfg, abndp.Params{Scale: scale})
		if err != nil {
			fatal(err)
		}
		interval := probe.Makespan / 80
		if interval < 1 {
			interval = 1
		}
		sys.SetUtilizationSampling(interval)
		res := sys.Run(app)
		var row strings.Builder
		for _, b := range res.Stats.Timeline {
			idx := b * (len(shades) - 1) / maxCores
			row.WriteRune(shades[idx])
		}
		// TimelineUtilization is guarded: a run short enough to finish
		// before its first sample renders an empty row and 0.0% rather
		// than NaN.
		fmt.Printf("%-3s |%s| %d cycles, %.1f%% mean util\n",
			d, row.String(), res.Makespan, 100*res.Stats.TimelineUtilization())
	}
}
