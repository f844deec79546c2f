package ndp

import (
	"testing"

	"abndp/internal/config"
	"abndp/internal/mem"
	"abndp/internal/task"
)

// emptyApp emits no tasks at all.
type emptyApp struct{}

func (emptyApp) Name() string                       { return "empty" }
func (emptyApp) Setup(*System)                      {}
func (emptyApp) InitialTasks(func(*task.Task))      {}
func (emptyApp) Execute(*task.Task, *ExecCtx) int64 { return 1 }
func (emptyApp) EndTimestamp(int64)                 {}

func TestEmptyAppFinishesImmediately(t *testing.T) {
	res := NewSystem(smallCfg(), config.DesignO).Run(emptyApp{})
	if res.Tasks != 0 || res.Steps != 0 {
		t.Fatalf("empty app ran %d tasks over %d steps", res.Tasks, res.Steps)
	}
	if res.Makespan != 0 {
		t.Fatalf("empty app makespan = %d", res.Makespan)
	}
}

// oneTaskApp runs a single task on a single line.
type oneTaskApp struct {
	arr  *mem.Array
	ran  int
	unit int
}

func (a *oneTaskApp) Name() string { return "one" }
func (a *oneTaskApp) Setup(sys *System) {
	a.arr = sys.Space.NewArray("one", 4, 16, mem.Interleave)
}
func (a *oneTaskApp) InitialTasks(emit func(*task.Task)) {
	emit(&task.Task{Elem: 2, Hint: task.Hint{Lines: []mem.Line{a.arr.LineOf(2)}}})
}
func (a *oneTaskApp) Execute(tk *task.Task, ctx *ExecCtx) int64 {
	a.ran++
	a.unit = int(ctx.Unit())
	return 100
}
func (a *oneTaskApp) EndTimestamp(int64) {}

func TestSingleTaskRunsAtHomeUnderB(t *testing.T) {
	app := &oneTaskApp{}
	res := NewSystem(smallCfg(), config.DesignB).Run(app)
	if app.ran != 1 {
		t.Fatalf("task ran %d times", app.ran)
	}
	if app.unit != 2 {
		t.Fatalf("task ran on unit %d, want its home 2", app.unit)
	}
	if res.Makespan < 100 {
		t.Fatalf("makespan %d below the task's own compute time", res.Makespan)
	}
}

func TestPrefetchWindowZeroStillCorrect(t *testing.T) {
	cfg := smallCfg()
	cfg.PrefetchWindow = 0 // all stalls exposed at execution
	app := newSynth(256, true)
	res := NewSystem(cfg, config.DesignO).Run(app)
	if res.Tasks != 512 {
		t.Fatalf("tasks = %d, want 512", res.Tasks)
	}
	// Without a window, stalls must be charged in full.
	var stall int64
	for i := range res.Stats.Units {
		stall += res.Stats.Units[i].StallCycles
	}
	if stall == 0 {
		t.Fatal("no stalls despite prefetching being disabled")
	}
}

func TestPrefetchWindowHidesLatency(t *testing.T) {
	run := func(window int) int64 {
		cfg := smallCfg()
		cfg.PrefetchWindow = window
		res := NewSystem(cfg, config.DesignB).Run(newSynth(1024, false))
		var stall int64
		for i := range res.Stats.Units {
			stall += res.Stats.Units[i].StallCycles
		}
		return stall
	}
	if noWin, win := run(0), run(8); win >= noWin {
		t.Fatalf("window=8 stalls (%d) should undercut window=0 stalls (%d)", win, noWin)
	}
}

func TestSingleCorePerUnit(t *testing.T) {
	cfg := smallCfg()
	cfg.CoresPerUnit = 1
	res := NewSystem(cfg, config.DesignO).Run(newSynth(256, true))
	if res.Tasks != 512 {
		t.Fatalf("tasks = %d", res.Tasks)
	}
	for i := range res.Stats.Units {
		if len(res.Stats.Units[i].ActiveCycles) != 1 {
			t.Fatal("wrong per-core accounting for 1-core units")
		}
	}
}

func TestExchangeHappensDuringRun(t *testing.T) {
	cfg := smallCfg()
	cfg.ExchangeInterval = 500 // force many exchanges
	app := newSynth(1024, true)
	res := NewSystem(cfg, config.DesignSh).Run(app)
	// The exchange charges interconnect energy even on otherwise idle
	// units; just assert the run completes deterministically.
	if res.Tasks != 2048 {
		t.Fatalf("tasks = %d", res.Tasks)
	}
	r2 := NewSystem(cfg, config.DesignSh).Run(newSynth(1024, true))
	if r2.Makespan != res.Makespan {
		t.Fatal("frequent exchanges broke determinism")
	}
}

func TestForwardedTasksAreCounted(t *testing.T) {
	cfg := smallCfg()
	res := NewSystem(cfg, config.DesignSh).Run(newSynth(1024, true))
	var fwd int64
	for i := range res.Stats.Units {
		fwd += res.Stats.Units[i].TasksForwarded
	}
	if fwd == 0 {
		t.Fatal("hybrid scheduling never forwarded a task on a skewed workload")
	}
}

func TestStolenTasksLosePrefetchState(t *testing.T) {
	// Covered indirectly by determinism; here assert steal bookkeeping
	// balances: total stolen-in == total stolen-out.
	cfg := smallCfg()
	res := NewSystem(cfg, config.DesignSl).Run(newSynth(2048, true))
	var in, out int64
	for i := range res.Stats.Units {
		in += res.Stats.Units[i].TasksStolenIn
		out += res.Stats.Units[i].TasksStolenOut
	}
	if in != out {
		t.Fatalf("stolen in (%d) != stolen out (%d)", in, out)
	}
	if in == 0 {
		t.Fatal("no steals on a skewed workload under Sl")
	}
}

func TestMakespanCoversAllActivity(t *testing.T) {
	cfg := smallCfg()
	res := NewSystem(cfg, config.DesignO).Run(newSynth(1024, true))
	for i := range res.Stats.Units {
		var sum int64
		for _, c := range res.Stats.Units[i].ActiveCycles {
			sum += c
		}
		if sum > res.Makespan*int64(cfg.CoresPerUnit) {
			t.Fatalf("unit %d active %d cycles exceeds makespan x cores", i, sum)
		}
	}
}

func TestHostDesignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSystem(DesignH) must panic")
		}
	}()
	NewSystem(smallCfg(), config.DesignH)
}

func TestUtilizationSampling(t *testing.T) {
	cfg := smallCfg()
	sys := NewSystem(cfg, config.DesignO)
	sys.SetUtilizationSampling(500)
	res := sys.Run(newSynth(1024, true))
	if len(res.Stats.Timeline) == 0 {
		t.Fatal("no utilization samples recorded")
	}
	maxCores := sys.Units() * cfg.CoresPerUnit
	var peak int
	for _, b := range res.Stats.Timeline {
		if b < 0 || b > maxCores {
			t.Fatalf("sample %d outside [0, %d]", b, maxCores)
		}
		if b > peak {
			peak = b
		}
	}
	if peak == 0 {
		t.Fatal("timeline never saw a busy core")
	}
	want := res.Makespan / 500
	if int64(len(res.Stats.Timeline)) > want+2 {
		t.Fatalf("%d samples for makespan %d at interval 500", len(res.Stats.Timeline), res.Makespan)
	}
}

func TestSchedulingWindowMode(t *testing.T) {
	cfg := smallCfg()
	cfg.SchedulingWindow = 4
	app := newSynth(512, true)
	res := NewSystem(cfg, config.DesignSh).Run(app)
	if res.Tasks != 1024 {
		t.Fatalf("tasks = %d, want 1024", res.Tasks)
	}
	for e, n := range app.executed {
		if n != 2 {
			t.Fatalf("element %d executed %d times", e, n)
		}
	}
	// Determinism holds in window mode too.
	r2 := NewSystem(cfg, config.DesignSh).Run(newSynth(512, true))
	if r2.Makespan != res.Makespan {
		t.Fatal("scheduling-window mode is nondeterministic")
	}
	// The asynchronous scheduler adds placement latency: the makespan can
	// only grow relative to instantaneous placement.
	instant := NewSystem(smallCfg(), config.DesignSh).Run(newSynth(512, true))
	if res.Makespan < instant.Makespan {
		t.Fatalf("window mode (%d) faster than instantaneous placement (%d)",
			res.Makespan, instant.Makespan)
	}
}

// A design Sl steal probe binds its reply and backoff events once per
// unit, so once the event queue has grown, an idle unit's probe cycle
// (probe, empty reply, backoff, next probe) allocates nothing.
func TestStealProbeAllocatesNothing(t *testing.T) {
	s := NewSystem(smallCfg(), config.DesignSl)
	s.outstanding = 1 // a phase in progress, with every queue empty
	s.onIdle(s.units[0])
	for i := 0; i < 16; i++ {
		if !s.Engine.Step() {
			t.Fatal("the probe cycle stopped")
		}
	}
	if n := testing.AllocsPerRun(100, func() { s.Engine.Step() }); n != 0 {
		t.Fatalf("a steal probe event allocated %v times, want 0", n)
	}
	if s.Engine.Pending() != 1 || !s.units[0].stealInFlight {
		t.Fatalf("%d events pending, probe in flight %v; want one probe cycle", s.Engine.Pending(), s.units[0].stealInFlight)
	}
}
