// Package bench regenerates every table and figure of the paper's
// evaluation (§7): it runs the right (workload, design, configuration)
// grid for each experiment, derives the same normalized metrics the paper
// plots, and prints them as text tables. cmd/abndpbench and the root
// bench_test.go both drive this package.
//
// Execution is split into plan and execute phases: each experiment's
// rendering code is first replayed against a placeholder result to collect
// the exact (app, design, config, params) run set it needs, the
// deduplicated union of all requested runs is simulated by a worker pool
// across GOMAXPROCS goroutines (every simulation stays single-goroutine,
// so per-run determinism is untouched), and the tables are then rendered
// in paper order from the completed results — byte-identical to serial
// execution. See pool.go.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"abndp/internal/apps"
	"abndp/internal/ckpt"
	"abndp/internal/config"
	"abndp/internal/host"
	"abndp/internal/ndp"
	"abndp/internal/stats"
)

// Runner executes and caches simulation runs for the experiments. The
// result caches are concurrency-safe (the worker pool fills them), but a
// Runner's Run/RunAll entry points are meant for a single goroutine.
type Runner struct {
	out      io.Writer
	base     config.Config
	quick    bool
	workers  int
	progress io.Writer // nil: no live progress reporting

	cache *memo[*ndp.Result]
	fcach *memo[*ndp.FunctionalResult]

	// Crash isolation (guard.go): failed runs are recorded here and resolve
	// to placeholder results so the rest of the sweep still renders.
	// failByKey indexes failures by cache key (first failure wins) so
	// result consumers can tell a cached sentinel from real data.
	failMu      sync.Mutex
	failures    []RunFailure
	failByKey   map[string]int
	runDeadline time.Duration
	deadlineSet bool
	simHook     func(runSpec) // test hook, called before each guarded run

	// Invariant audit (check.go): with checkRuns set, every timing
	// simulation runs audited plus a plain rerun whose hash must match.
	checkRuns       bool
	checkMu         sync.Mutex
	checkViolations []CheckViolation
	checkedRuns     int64 // atomic
	checkEvals      int64 // atomic

	// Planning state: while planning, run/functional record the requested
	// run specs instead of simulating, and return placeholders.
	planning bool
	planned  map[string]runSpec
	plannedF map[string]funcSpec

	// Checkpoint store (speed.go in internal/ndp): every simulation gets
	// the shard for its prefix key, so sweep points varying only
	// late-binding knobs share placement work.
	store *ckpt.Store

	// Per-run wall-clock and engine event counts, keyed by cache key, plus
	// per-experiment attribution (which runs each experiment referenced) —
	// the source of the events_total / events_per_sec BENCH fields.
	// statsMu also guards the unexported inline/pool second split inside
	// metrics (workers write runStats; render attributes single-threaded).
	statsMu  sync.Mutex
	runStats map[string]runStat
	expRuns  map[string]map[string]bool
	curExp   string
	inPool   bool // set around the pool phase (no render runs concurrently)

	metrics Metrics
}

// runStat is one executed simulation's host-side cost.
type runStat struct {
	seconds float64
	events  int64
}

// NewRunner builds a Runner writing its tables to w, using the Table 1
// configuration as the base. By default runs execute on GOMAXPROCS worker
// goroutines; see SetWorkers.
//
// Every Runner simulates on the one engine path: it owns a checkpoint
// store of placement cost vectors, and it switches the process-wide
// workload-input cache on, so sweep points that vary only late-binding
// knobs skip regenerating inputs and recomputing placement vectors.
// Results are byte-identical to the bare engine — see docs/PERF.md and the
// parity tests.
func NewRunner(w io.Writer) *Runner {
	apps.EnableInputCache(true)
	return &Runner{
		out:   w,
		base:  config.Default(),
		cache: newMemo[*ndp.Result](),
		fcach: newMemo[*ndp.FunctionalResult](),
		store: ckpt.NewStore(0),
	}
}

// SetQuick shrinks workload sizes (for smoke tests of the harness itself).
func (r *Runner) SetQuick(q bool) { r.quick = q }

// Store returns the Runner's checkpoint store.
func (r *Runner) Store() *ckpt.Store { return r.store }

// SetWorkers fixes the worker-pool size for simulation runs: 1 executes
// every run inline and serially (the pre-parallel behavior), 0 restores
// the default of GOMAXPROCS.
func (r *Runner) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	r.workers = n
}

// SetProgress makes the Runner report live per-experiment and per-run
// progress to w (typically os.Stderr, so it interleaves with the tables on
// stdout without corrupting them). Nil disables reporting.
func (r *Runner) SetProgress(w io.Writer) { r.progress = w }

// progressf prints one progress line when reporting is enabled.
func (r *Runner) progressf(format string, args ...any) {
	if r.progress != nil {
		fmt.Fprintf(r.progress, format, args...)
	}
}

// Workers returns the effective worker-pool size.
func (r *Runner) Workers() int {
	if r.workers > 0 {
		return r.workers
	}
	return runtime.GOMAXPROCS(0)
}

// benchSizes are the workload sizes used for the experiments: large enough
// that execution spans many exchange intervals and the power-law skew
// drives real hotspots, small enough that the full ~300-run suite stays
// tractable.
var benchSizes = map[string]apps.Params{
	"pr":     {Scale: 14, Degree: 12, Iters: 3, Seed: 42},
	"bfs":    {Scale: 15, Degree: 12, Seed: 42},
	"sssp":   {Scale: 14, Degree: 12, Seed: 42},
	"astar":  {Scale: 12, Seed: 42},
	"gcn":    {Scale: 12, Degree: 12, Iters: 2, Seed: 42},
	"kmeans": {Scale: 14, Iters: 3, Seed: 42},
	"knn":    {Scale: 13, Seed: 42},
	"spmv":   {Scale: 14, Degree: 12, Seed: 42},
}

// params returns the workload sizing used for the experiments.
func (r *Runner) params(app string) apps.Params {
	if r.quick {
		return apps.Params{Scale: 8, Degree: 6, Seed: 42}
	}
	if p, ok := benchSizes[app]; ok {
		return p
	}
	return apps.Params{Seed: 42}
}

// paramsKey fingerprints workload parameters field by field (see
// config.CanonicalKey for why %+v is not used).
func paramsKey(p apps.Params) string {
	var b strings.Builder
	b.Grow(32)
	b.WriteString(strconv.Itoa(p.Scale))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(p.Degree))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(p.Iters))
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(p.Seed, 10))
	b.WriteByte('|')
	if p.PerfectHints {
		b.WriteByte('t')
	} else {
		b.WriteByte('f')
	}
	b.WriteByte('|')
	b.WriteString(p.GraphPath)
	return b.String()
}

// key fingerprints a run for the cache.
func key(app string, d config.Design, cfg config.Config, p apps.Params) string {
	return app + "|" + d.String() + "|" + cfg.CanonicalKey() + "#" + paramsKey(p)
}

// run simulates (or returns the cached result of) one configuration.
func (r *Runner) run(app string, d config.Design, mut func(*config.Config)) *ndp.Result {
	cfg := r.base
	if mut != nil {
		mut(&cfg)
	}
	return r.runCfg(runSpec{app: app, d: d, cfg: cfg, p: r.params(app)})
}

// runCfg resolves one fully specified run: during planning it records the
// spec and returns a placeholder; otherwise it simulates through the
// singleflight memo cache (or returns the memoized result).
func (r *Runner) runCfg(spec runSpec) *ndp.Result {
	k := key(spec.app, spec.d, spec.cfg, spec.p)
	if r.planning {
		if _, ok := r.planned[k]; !ok {
			r.planned[k] = spec
		}
		return planResult
	}
	res := r.cache.do(k, func() *ndp.Result {
		r.metrics.addRun()
		return r.safeSimulate(k, spec)
	})
	r.attributeRun(k)
	return res
}

// attributeRun records that the experiment currently rendering referenced
// the run under key k — the basis of per-experiment events_total.
func (r *Runner) attributeRun(k string) {
	if r.curExp == "" {
		return
	}
	r.statsMu.Lock()
	if r.expRuns == nil {
		r.expRuns = make(map[string]map[string]bool)
	}
	set := r.expRuns[r.curExp]
	if set == nil {
		set = make(map[string]bool)
		r.expRuns[r.curExp] = set
	}
	set[k] = true
	r.statsMu.Unlock()
}

// timeExperiment times one experiment render (plan-phase replays are not
// timed — they would append near-zero duplicate rows) and, on stop, fills
// the row with the engine cost of every simulation the experiment
// referenced: summed wall-clock, event count, and the resulting events/sec.
// Runs shared between experiments are attributed to each experiment that
// referenced them, so per-experiment rows can overlap; the Metrics-level
// totals count every executed run exactly once.
func (r *Runner) timeExperiment(name string) func() {
	if r.planning {
		return func() {}
	}
	r.curExp = name
	start := time.Now()
	return func() {
		r.curExp = ""
		row := ExperimentTiming{Name: name, Seconds: time.Since(start).Seconds()}
		r.statsMu.Lock()
		for k := range r.expRuns[name] {
			if st, ok := r.runStats[k]; ok {
				row.SimSeconds += st.seconds
				row.EventsTotal += st.events
			}
		}
		r.statsMu.Unlock()
		if row.SimSeconds > 0 {
			row.EventsPerSec = float64(row.EventsTotal) / row.SimSeconds
		}
		r.metrics.Experiments = append(r.metrics.Experiments, row)
	}
}

// newSystem builds the System for one run, attaching the checkpoint shard
// for the run's prefix key and the spec's per-run observer (read-only
// instrumentation; results stay byte-identical either way).
func (r *Runner) newSystem(spec runSpec) *ndp.System {
	sys := ndp.NewSystem(spec.cfg, spec.d)
	sys.SetCheckpoint(r.store.Shard(spec.app + "|" + sys.Design.String() + "|" + sys.Cfg.PrefixKey()))
	if spec.obsv != nil {
		sys.SetObserver(spec.obsv)
	}
	return sys
}

// simulate executes one run, registering its System with h. It is the
// only place experiments build systems, and is safe to call from worker
// goroutines: every System (and its RNGs, stats, and engine) is private
// to the call, and the shared checkpoint shard is concurrency-safe by
// design.
func (r *Runner) simulate(k string, spec runSpec, h *halter) *ndp.Result {
	a, err := apps.New(spec.app, spec.p)
	if err != nil {
		panic(err)
	}
	start := time.Now()
	sys := h.add(r.newSystem(spec))
	res := sys.Run(a)
	r.noteRunStat(k, time.Since(start).Seconds(), res.Events)
	return res
}

// noteRunStat records one executed run's wall clock and event count. Runs
// outside the pool phase (lazy render-time misses, serve jobs) also add to
// the inline share of sim_seconds — the satellite fix for BENCH json
// reporting sim_seconds 0 under a single worker.
func (r *Runner) noteRunStat(k string, seconds float64, events int64) {
	r.statsMu.Lock()
	if r.runStats == nil {
		r.runStats = make(map[string]runStat)
	}
	if _, dup := r.runStats[k]; !dup {
		r.runStats[k] = runStat{seconds: seconds, events: events}
	}
	if !r.inPool {
		r.metrics.simInline += seconds
	}
	r.statsMu.Unlock()
}

// functional characterizes a workload once for the host model.
func (r *Runner) functional(app string) *ndp.FunctionalResult {
	p := r.params(app)
	k := app + "#" + paramsKey(p)
	if r.planning {
		if _, ok := r.plannedF[k]; !ok {
			r.plannedF[k] = funcSpec{app: app, p: p}
		}
		return planFunctional
	}
	return r.fcach.do(k, func() *ndp.FunctionalResult {
		r.metrics.addRun()
		return r.safeFunctional(k, funcSpec{app: app, p: p})
	})
}

// planResult is what run returns while planning: every metric the
// rendering code might read is populated and nonzero, so replaying the
// render math against it cannot panic. Placeholders are never cached.
var planResult = func() *ndp.Result {
	st := stats.NewSystem(1, 1)
	st.Units[0].ActiveCycles[0] = 1
	st.Makespan, st.Tasks, st.Steps = 1, 1, 1
	res := &ndp.Result{Makespan: 1, Seconds: 1, Tasks: 1, Steps: 1, InterHops: 1, Stats: st}
	res.Energy.CoreSRAM, res.Energy.DRAM, res.Energy.Interconnect, res.Energy.Static = 1, 1, 1, 1
	return res
}()

var planFunctional = &ndp.FunctionalResult{
	Instructions: 1, LineAccesses: 1, Footprint: 1, Tasks: 1, Steps: 1,
}

// hostSeconds estimates design H's time for a workload.
func (r *Runner) hostSeconds(app string) float64 {
	return host.Run(host.Default(), r.functional(app)).Seconds
}

// figureApps are the representative workloads of Figures 8, 9, 11-18.
var figureApps = []string{"pr", "bfs", "gcn", "knn", "spmv"}

func (r *Runner) tw() *tabwriter.Writer {
	return tabwriter.NewWriter(r.out, 2, 4, 2, ' ', 0)
}

func (r *Runner) header(title string) {
	fmt.Fprintf(r.out, "\n=== %s ===\n", title)
}

// Experiment names in paper order.
var Experiments = []string{
	"tab1", "tab2", "fig2", "fig6", "fig7", "fig8", "fig9", "fig10",
	"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
}

// Run executes one experiment by name: its run set is simulated by the
// worker pool, then the tables are rendered from the completed results.
func (r *Runner) Run(name string) error {
	if err := r.planAndExecute(name); err != nil {
		return err
	}
	return r.render(name)
}

// render dispatches one experiment's table/figure output. All simulation
// requests it makes hit the warmed cache after planAndExecute (a miss
// falls back to simulating inline, so partial plans stay correct).
func (r *Runner) render(name string) error {
	if !r.planning {
		r.progressf("render %s\n", name)
	}
	defer r.timeExperiment(name)()
	switch name {
	case "tab1":
		r.Table1()
	case "tab2":
		r.Table2()
	case "fig2":
		r.Figure2()
	case "fig6":
		r.Figure6()
	case "fig7":
		r.Figure7()
	case "fig8":
		r.Figure8()
	case "fig9":
		r.Figure9()
	case "fig10":
		r.Figure10()
	case "fig11":
		r.Figure11()
	case "fig12":
		r.Figure12()
	case "fig13":
		r.Figure13()
	case "fig14":
		r.Figure14()
	case "fig15":
		r.Figure15()
	case "fig16":
		r.Figure16()
	case "fig17":
		r.Figure17()
	case "fig18":
		r.Figure18()
	case "ablrepl":
		r.AblationReplacement()
	case "ablprobe":
		r.AblationProbeAll()
	case "ablhint":
		r.AblationHints()
	case "abltopo":
		r.AblationTopology()
	case "ablsteal":
		r.AblationStealing()
	case "ablwindow":
		r.AblationWindow()
	case "resilience":
		r.Resilience()
	default:
		return fmt.Errorf("bench: unknown experiment %q", name)
	}
	return nil
}

// RunAll executes every experiment in paper order, then the ablations. The
// union of every experiment's run set is deduplicated and simulated up
// front, so overlapping experiments (most share the design-O defaults)
// simulate once and the pool sees the widest possible parallelism.
func (r *Runner) RunAll() {
	names := make([]string, 0, len(Experiments)+len(AblationExperiments)+len(ResilienceExperiments))
	names = append(names, Experiments...)
	names = append(names, AblationExperiments...)
	names = append(names, ResilienceExperiments...)
	if err := r.planAndExecute(names...); err != nil {
		panic(err)
	}
	for _, e := range names {
		if err := r.render(e); err != nil {
			panic(err)
		}
	}
}

// loadCurve summarizes a Figure 9 curve: selected quantiles of per-core
// active cycles normalized to the design's mean.
func loadCurve(st *stats.System) (min, q1, med, q3, max float64) {
	cycles := st.CoreActiveCycles()
	var sum int64
	for _, c := range cycles {
		sum += c
	}
	if sum == 0 {
		return
	}
	mean := float64(sum) / float64(len(cycles))
	b := stats.Box(cycles)
	return b.Min / mean, b.Q1 / mean, b.Median / mean, b.Q3 / mean, b.Max / mean
}
