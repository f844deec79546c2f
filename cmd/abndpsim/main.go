// Command abndpsim runs one workload on one simulated NDP design and
// prints its performance, traffic, and energy summary.
//
// Usage:
//
//	abndpsim -app pr -design O
//	abndpsim -app spmv -design Sl -scale 13 -degree 16
//	abndpsim -app pr -design O -mesh 8 -campcount 7 -ratio 32
//	abndpsim -app pr -design O -faults "slow:9:4;kill:70@25000" -fault-seed 7
//	abndpsim -app pr -design O -perfetto trace.json -metrics phases.csv
//	abndpsim -app pr -design O -pprof :6060 -cpuprofile cpu.out
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"abndp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "abndpsim:", err)
		os.Exit(1)
	}
}

// run is main returning its error instead of exiting, so the deferred
// CPU-profile stop runs on a failing run too.
func run() error {
	var (
		appName  = flag.String("app", "pr", "workload: pr bfs sssp astar gcn kmeans knn spmv")
		design   = flag.String("design", "O", "design: H B Sm Sl Sh C O")
		scale    = flag.Int("scale", 0, "log2 element count (0 = workload default)")
		degree   = flag.Int("degree", 0, "average degree / nnz per row (0 = default)")
		iters    = flag.Int("iters", 0, "iterations (0 = default)")
		seed     = flag.Int64("seed", 42, "input generator seed")
		mesh     = flag.Int("mesh", 4, "stack mesh side (2, 4, or 8)")
		ratio    = flag.Int("ratio", 64, "Traveller Cache size = 1/ratio of local DRAM")
		camps    = flag.Int("campcount", 3, "camp locations per line (C)")
		ways     = flag.Int("ways", 4, "Traveller Cache associativity")
		bypass   = flag.Float64("bypass", 0.4, "cache insertion bypass probability")
		alpha    = flag.Float64("alpha", -1, "hybrid weight B = alpha*Dinter (-1 = d/2)")
		exchange = flag.Int64("exchange", 0, "workload exchange interval, cycles (0 = default)")
		identity = flag.Bool("identical-mapping", false, "disable the skewed camp mapping")
		lru      = flag.Bool("lru", false, "use LRU instead of random cache replacement")
		probeAll = flag.Bool("probe-all", false, "probe every camp on a miss instead of nearest only")
		torus    = flag.Bool("torus", false, "use a torus instead of a mesh inter-stack network")
		perfect  = flag.Bool("perfect-hints", false, "supply exact workload hints to the scheduler")
		checkRun = flag.Bool("check", false, "audit the run: runtime invariants fail fast, then the metamorphic battery (exit 1 on violations)")
		hashOut  = flag.Bool("hash", false, "also print result_hash=<fnv1a %016x> (compare against abndpserve's result_hash)")
		faults   = flag.String("faults", "", "fault-injection spec, e.g. 'dram:0.001;slow:9:4;kill:70@25000;link:5:e@12000' (see docs/FAULTS.md)")
		fseed    = flag.Int64("fault-seed", 0, "decorrelate the DRAM-error stream (overrides a seed: clause in -faults)")
		trace    = flag.String("trace", "", "write a JSONL per-task completion trace to this file")
		graphIn  = flag.String("graph", "", "load the input graph from a file (SNAP edge list or .mtx)")
		perfetto = flag.String("perfetto", "", "write a Perfetto/Chrome trace-event JSON trace to this file")
		metricsF = flag.String("metrics", "", "write phase-resolved observability metrics as CSV to this file")
		sample   = flag.Int64("sample-interval", 1024, "counter-sampling interval in cycles for -perfetto")
		pprofSrv = flag.String("pprof", "", "serve pprof+expvar+Prometheus /metrics debug HTTP on this address (e.g. :6060)")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memprof  = flag.String("memprofile", "", "write a heap profile (taken after the run) to this file")
	)
	flag.Parse()

	if *pprofSrv != "" {
		addr, err := abndp.StartDebugServer(*pprofSrv)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "abndpsim: debug server at http://%s/debug/pprof/ (metrics at /metrics)\n", addr)
	}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	cfg := abndp.DefaultConfig()
	cfg.MeshX, cfg.MeshY = *mesh, *mesh
	cfg.CacheRatio = *ratio
	cfg.CampCount = *camps
	cfg.CacheWays = *ways
	cfg.BypassProb = *bypass
	cfg.HybridAlpha = *alpha
	if *exchange > 0 {
		cfg.ExchangeInterval = *exchange
	}
	cfg.SkewedMapping = !*identity
	if *lru {
		cfg.Replacement = abndp.ReplaceLRU
	}
	cfg.ProbeAllCamps = *probeAll
	cfg.Torus = *torus
	if *faults != "" {
		plan, err := abndp.ParseFaults(*faults)
		if err != nil {
			return err
		}
		cfg.Faults = plan
	}
	if *fseed != 0 {
		cfg.Faults.Seed = *fseed
	}

	p := abndp.Params{Scale: *scale, Degree: *degree, Iters: *iters, Seed: *seed,
		PerfectHints: *perfect, GraphPath: *graphIn}

	d, err := abndp.ParseDesign(*design)
	if err != nil {
		return err
	}

	if d == abndp.DesignH {
		r, err := abndp.RunHost(*appName, cfg, p)
		if err != nil {
			return err
		}
		fmt.Printf("app=%s design=H time=%.3f ms memory_bound=%v traffic=%.2f GB\n",
			*appName, r.Seconds*1e3, r.MemoryBound, r.TrafficGB)
		return nil
	}

	if *checkRun {
		// The audit battery reruns the workload to compare result hashes;
		// observability outputs of a multiplexed run would be misleading.
		if *perfetto != "" || *metricsF != "" || *trace != "" {
			return fmt.Errorf("-check cannot be combined with -perfetto, -metrics, or -trace")
		}
		res, rep, err := abndp.AuditRun(*appName, d, cfg, p, true)
		if err != nil {
			return err
		}
		if res != nil {
			printSummary(res, cfg)
			if *hashOut {
				fmt.Printf("result_hash=%016x\n", abndp.ResultHash(res))
			}
		}
		fmt.Println(rep.String())
		if !rep.Ok() {
			return errors.New("audit failed")
		}
		return nil
	}

	app, err := abndp.NewApp(*appName, p)
	if err != nil {
		return err
	}
	// The JSONL task trace is buffered and flushed explicitly after the
	// run: encode errors are recorded (not returned mid-simulation) and
	// reported once at close.
	var tracer func(abndp.TaskTrace)
	var closeTrace func() error
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			return err
		}
		bw := bufio.NewWriterSize(f, 1<<16)
		enc := json.NewEncoder(bw)
		var traceErr error
		tracer = func(t abndp.TaskTrace) {
			if traceErr == nil {
				traceErr = enc.Encode(t)
			}
		}
		closeTrace = func() error {
			if err := bw.Flush(); err != nil && traceErr == nil {
				traceErr = err
			}
			if err := f.Close(); err != nil && traceErr == nil {
				traceErr = err
			}
			return traceErr
		}
	}

	var o *abndp.Observer
	var perfF *os.File
	var perfT *abndp.Tracer
	if *perfetto != "" || *metricsF != "" {
		o = &abndp.Observer{}
		if *perfetto != "" {
			var err error
			if perfF, err = os.Create(*perfetto); err != nil {
				return err
			}
			perfT = abndp.NewTracer(perfF, cfg.CoreGHz)
			o.Trace = perfT
			o.SampleInterval = *sample
		}
		if *metricsF != "" {
			o.Metrics = &abndp.ObsMetrics{}
		}
	}

	simStart := time.Now()
	res, err := abndp.RunAppObserved(app, d, cfg, o, tracer)
	if err != nil {
		return err
	}
	simWall := time.Since(simStart).Seconds()
	if closeTrace != nil {
		if err := closeTrace(); err != nil {
			return fmt.Errorf("writing %s: %w", *trace, err)
		}
	}
	if perfT != nil {
		if err := perfT.Close(); err != nil {
			return fmt.Errorf("writing %s: %w", *perfetto, err)
		}
		if err := perfF.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "abndpsim: wrote %d trace events to %s (open in https://ui.perfetto.dev)\n",
			perfT.Events(), *perfetto)
	}
	if *metricsF != "" {
		f, err := os.Create(*metricsF)
		if err != nil {
			return err
		}
		if err := res.Stats.Obs.WriteCSV(f); err != nil {
			return fmt.Errorf("writing %s: %w", *metricsF, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	printSummary(res, cfg)
	if simWall > 0 {
		fmt.Printf("  engine        %d events in %.2fs host time (%.3g events/sec)\n",
			res.Events, simWall, float64(res.Events)/simWall)
	}
	if *hashOut {
		fmt.Printf("result_hash=%016x\n", abndp.ResultHash(res))
	}
	return nil
}

// printSummary renders the end-of-run performance, traffic, and energy
// report shared by plain and -check runs.
func printSummary(res *abndp.Result, cfg abndp.Config) {
	fmt.Printf("app=%s design=%s\n", res.App, res.Design)
	if res.Unrecoverable != "" {
		fmt.Printf("  UNRECOVERABLE %s (at cycle %d)\n", res.Unrecoverable, res.Makespan)
	}
	fmt.Printf("  cycles        %d (%.3f ms)\n", res.Makespan, res.Seconds*1e3)
	fmt.Printf("  tasks         %d over %d timestamps\n", res.Tasks, res.Steps)
	fmt.Printf("  inter hops    %d\n", res.InterHops)
	fmt.Printf("  imbalance     %.2fx (max/mean unit cycles)\n", res.Stats.ImbalanceRatio())
	if hr := res.Stats.CacheHitRate(); hr > 0 {
		fmt.Printf("  cache hits    %.1f%%\n", hr*100)
	}
	var reads, writes, queue, maxQueue int64
	var l1h, l1m, pfh int64
	for i := range res.Stats.Units {
		u := &res.Stats.Units[i]
		reads += u.DRAMReads
		writes += u.DRAMWrites
		queue += u.DRAMQueueCycles
		if u.DRAMQueueCycles > maxQueue {
			maxQueue = u.DRAMQueueCycles
		}
		l1h += u.L1Hits
		l1m += u.L1Misses
		pfh += u.PFHits
	}
	fmt.Printf("  dram          %d reads, %d writes, queue total %d cycles (max unit %d)\n",
		reads, writes, queue, maxQueue)
	type hot struct{ u, acc, q int64 }
	var hots []hot
	for i := range res.Stats.Units {
		u := &res.Stats.Units[i]
		hots = append(hots, hot{int64(i), u.DRAMReads + u.DRAMWrites, u.DRAMQueueCycles})
	}
	sort.Slice(hots, func(i, j int) bool { return hots[i].q > hots[j].q })
	for _, h := range hots[:3] {
		fmt.Printf("  hot dram unit %d: %d accesses, %d queue cycles\n", h.u, h.acc, h.q)
	}
	fmt.Printf("  l1            %.1f%% hit; pf reuse %d\n",
		100*float64(l1h)/float64(l1h+l1m+1), pfh)
	var stall int64
	for i := range res.Stats.Units {
		stall += res.Stats.Units[i].StallCycles
	}
	fmt.Printf("  stalls        %d total (%.0f per task)\n", stall, float64(stall)/float64(res.Tasks))
	e := res.Energy
	fmt.Printf("  energy        %.1f uJ (core+SRAM %.1f, DRAM %.1f, interconnect %.1f, static %.1f)\n",
		e.Total()/1e6, e.CoreSRAM/1e6, e.DRAM/1e6, e.Interconnect/1e6, e.Static/1e6)
	if f := res.Stats.Faults; !cfg.Faults.Empty() || f.Any() {
		fmt.Printf("  faults        %d dram retries (%d uncorrected), %d reexecuted, %d redistributed, %d rerouted (+%d hops), %d dead units, %d dead links\n",
			f.DRAMRetries, f.DRAMUncorrected, f.TasksReExecuted, f.TasksRedistributed,
			f.ReroutedMsgs, f.ReroutedExtraHops, f.DeadUnits, f.DeadLinks)
	}
}
