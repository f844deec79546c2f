package ndp

import (
	"fmt"
	"math/rand"

	"abndp/internal/cache"
	"abndp/internal/check"
	"abndp/internal/ckpt"
	"abndp/internal/config"
	"abndp/internal/core"
	"abndp/internal/dram"
	"abndp/internal/fault"
	"abndp/internal/mem"
	"abndp/internal/noc"
	"abndp/internal/obs"
	"abndp/internal/sched"
	"abndp/internal/sim"
	"abndp/internal/stats"
	"abndp/internal/task"
	"abndp/internal/topology"
	"abndp/internal/traveller"
)

// coreState tracks one in-order NDP core.
type coreState struct {
	busy         bool
	activeCycles int64
}

// unit is the runtime state of one NDP unit (Figure 3): cores, task queue,
// prefetch buffer, L1 proxy, optional Traveller cache, and DRAM channel.
type unit struct {
	id    topology.UnitID
	queue task.Queue
	cores []coreState

	l1    *cache.L1
	pfbuf *cache.PrefetchBuffer
	cache *traveller.Cache // nil when the design has no DRAM cache
	dram  *dram.Channel

	stealInFlight bool
	stealBackoff  int64
	stealVictim   topology.UnitID // victim of the probe in flight
	// stealReply and stealRetry fire the in-flight probe's reply and the
	// end of an empty reply's backoff. A unit has at most one of them
	// pending, so they are bound once, on its first probe, and probing
	// allocates nothing after that.
	stealReply, stealRetry func()

	// schedQ holds generated tasks awaiting placement when the
	// asynchronous scheduling window is enabled (Figure 4).
	schedQ       []*task.Task
	schedRunning bool
}

// System is one simulated NDP machine running one workload under one design.
type System struct {
	Cfg    config.Config
	Design config.Design

	Engine *sim.Engine
	Topo   *topology.Topology
	Space  *mem.Space
	Noc    *noc.Model
	Camps  *core.CampMap
	Cost   *core.CostModel
	Sched  *sched.Scheduler
	Stats  *stats.System

	units []*unit
	trueW []float64 // exact per-unit queued workload (W_u of §5.2)

	app               App
	stealRNG          *rand.Rand
	schedQOutstanding int64 // tasks waiting in scheduling windows
	curTS             int64
	outstanding       int64        // unfinished tasks of the current timestamp
	pending           []*task.Task // tasks enqueued for the next timestamp
	spare             []*task.Task // the last phase's batch, reused as pending
	stolen            []*task.Task // scratch for the tasks of one steal reply
	finished          bool
	queueLens         []int           // scratch for work-stealing victim selection
	lastProbed        topology.UnitID // scratch for the probe-all-camps chain
	tracer            func(TaskTrace) // optional per-task completion callback
	sampleUtil        bool            // record Stats.Timeline

	// Fault injection (internal/fault). flt is nil when Cfg.Faults is empty,
	// and every fault probe site is a nil check against this field — the
	// same zero-cost-when-off discipline as the observer. unrecoverable is
	// set (with a reason) when graceful degradation gives up: retry budget
	// exhausted or no live units left.
	flt           *fault.Injector
	unrecoverable string
	// Observed service-rate estimation for the degraded hybrid score: work
	// completed and busy cycles per unit, cumulative and at the last
	// exchange, folded into fltRates (shared with the scheduler) each
	// exchange tick.
	fltRates    []float64
	fltTput     []float64
	fltWork     []float64
	fltBusy     []int64
	fltLastWork []float64
	fltLastBusy []int64

	// fltActive distinguishes a fault layer armed with a real plan from one
	// force-armed by the metamorphic audit harness with an empty plan. Only
	// behavior-changing fault machinery (service-rate estimation) gates on
	// it; pure probe sites gate on flt != nil and degrade to no-ops.
	fltActive bool

	// Invariant auditing (internal/check). audit is nil by default — the
	// same zero-cost-when-off discipline as the observer. auditSpawned
	// counts tasks entering the pending list (exactly once per task
	// lifetime) for the end-of-run conservation check.
	audit        *check.Checker
	auditSpawned int64

	// Observability (internal/obs). observer is nil by default; obsM and
	// obsT cache its Metrics/Trace sinks so every hot-path probe site is a
	// single nil check against a direct field — zero cost when disabled.
	observer *obs.Observer
	obsM     *obs.Metrics
	obsT     *obs.Tracer

	// Hot-path recycling (all single-goroutine, like the System itself):
	// completion events and child-task slices turn around as soon as they
	// fire; retired tasks wait for the bulk-synchronous barrier, the point
	// where their lifetime is provably over, before re-entering taskPool.
	execCtx   ExecCtx
	compPool  []*completion
	childBufs [][]*task.Task
	taskPool  task.Pool
	retired   []*task.Task

	// Checkpoint/delta re-simulation (internal/ckpt). Nil by default: a
	// nil-shard run is the golden path. See speed.go.
	ckptShard *ckpt.Shard

	// Cached energy constants (pJ) and latencies (cycles).
	sramHitCycles int64
	dramTagExtra  bool // CacheKind == CacheDRAMTags
	sramData      bool // CacheKind == CacheSRAM

	// Mesh link model: each stack has four directional mesh links (N/E/S/W)
	// sustaining InterBWGBs each, so data messages leaving a stack toward
	// the same direction serialize. This is the contention that makes
	// remote-access-heavy schedules pay in time, not just energy. Links use
	// the same backlog-draining server model as DRAM channels.
	portOcc     int64   // cycles one data message occupies a link
	portLastT   []int64 // per-(stack, direction) last arrival time
	portBacklog []int64 // per-(stack, direction) queued work at portLastT
}

// NewSystem builds a system for the given design. Design H has no NDP
// system; callers use internal/host for it.
func NewSystem(cfg config.Config, design config.Design) *System {
	if design == config.DesignH {
		panic("ndp: design H is modeled by internal/host, not a System")
	}
	cfg = design.Apply(cfg)
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("ndp: %v", err))
	}

	topo := topology.New(topology.Config{
		MeshX: cfg.MeshX, MeshY: cfg.MeshY,
		UnitsPerStack: cfg.UnitsPerStack, Groups: cfg.Groups(),
		Torus: cfg.Torus,
	})
	space := mem.NewSpace(topo.Units(), cfg.UnitBytes)
	n := noc.New(topo, &cfg)
	camps := core.NewCampMap(topo, space, cfg.SkewedMapping)
	// Only design O schedules against camp locations (§5.1); every other
	// design scores homes, even C, which caches without scheduler support.
	campAware := design == config.DesignO
	cost := core.NewCostModel(n, camps, campAware)

	s := &System{
		Cfg:    cfg,
		Design: design,
		Engine: &sim.Engine{},
		Topo:   topo,
		Space:  space,
		Noc:    n,
		Camps:  camps,
		Cost:   cost,
		Sched:  sched.New(sched.PolicyName(&cfg, design), cost, camps, n, &cfg),
		Stats:  stats.NewSystem(topo.Units(), cfg.CoresPerUnit),
		trueW:  make([]float64, topo.Units()),

		sramHitCycles: cfg.SRAMHitCycles,
		dramTagExtra:  cfg.CacheKind == config.CacheDRAMTags,
		sramData:      cfg.CacheKind == config.CacheSRAM,
		portOcc:       cfg.Cycles(noc.DataBytes / cfg.InterBWGBs),
		portLastT:     make([]int64, topo.Stacks()*4),
		portBacklog:   make([]int64, topo.Stacks()*4),
	}
	if design.UsesStealing() {
		// Only work stealing draws from it, and a math/rand source is
		// about 5 KB.
		s.stealRNG = rand.New(rand.NewSource(cfg.Seed + 0x5eed))
	}
	s.units = make([]*unit, topo.Units())
	for i := range s.units {
		u := &unit{
			id:    topology.UnitID(i),
			cores: make([]coreState, cfg.CoresPerUnit),
			l1:    cache.NewL1(cfg.L1DBytes, cfg.L1DWays),
			pfbuf: cache.NewPrefetchBuffer(cfg.PrefetchBufBytes),
			dram:  dram.NewChannel(&cfg),
		}
		if cfg.CacheEnabled {
			u.cache = traveller.New(&cfg, uint64(cfg.Seed)<<20+uint64(i))
		}
		s.units[i] = u
	}
	if !cfg.Faults.Empty() {
		s.armFaults()
	}
	return s
}

// Units returns the number of NDP units.
func (s *System) Units() int { return len(s.units) }

// CacheEnabled reports whether the distributed DRAM cache is active.
func (s *System) CacheEnabled() bool { return s.Cfg.CacheEnabled }
