package ndp

import (
	"errors"

	"abndp/internal/noc"
	"abndp/internal/sched"
	"abndp/internal/task"
	"abndp/internal/topology"
)

// errHalted is Run's panic value when another goroutine halts the engine
// (sim.Engine.Halt) before the run finishes: a halted run has no result.
// Run checks the flag while it places the initial tasks and the engine
// checks it before every event; only the app's Setup cannot be halted.
var errHalted = errors.New("ndp: run halted before it finished")

// Run simulates app to completion and returns its result. The app is
// stored on the System for the duration of the run.
func (s *System) Run(app App) *Result {
	s.app = app
	if s.observer != nil {
		s.obsStart()
	}
	app.Setup(s)

	// Timestamp-0 tasks originate at their main element's home unit, as
	// if created by a loader there, and are placed by that unit's
	// scheduler. Loading is slow relative to the exchange interval, so the
	// load snapshots refresh periodically throughout the emission.
	//
	// Emission is collected first and placed second. The placement loop
	// below is byte-identical to placing inside the callback — apps only
	// construct tasks during InitialTasks, so the Exchange/place
	// interleaving over trueW is unchanged — and the two forms measure the
	// same: on perfbench matrix-quick (2 vCPUs, 16 alternating pairs) each
	// won 8, with median wall_s 0.311 s here against 0.321 s.
	var initial []*task.Task
	app.InitialTasks(func(t *task.Task) {
		t.TS = 0
		t.Origin = s.Camps.Home(t.Hint.Lines[0])
		initial = append(initial, t)
	})
	for i, t := range initial {
		if i%len(s.units) == 0 {
			if s.Engine.Halted() {
				panic(errHalted)
			}
			s.Sched.Exchange(s.trueW)
		}
		s.placeTask(t, t.Origin)
		s.pending = append(s.pending, t)
		if s.audit != nil {
			s.auditSpawned++
		}
	}

	s.curTS = -1
	s.startTimestamp()
	s.scheduleExchange()
	s.scheduleUtilSample()
	s.Engine.Run()
	if s.Engine.Halted() {
		panic(errHalted)
	}
	if !s.finished {
		panic("ndp: simulation drained events with tasks outstanding")
	}
	s.obsEnd()
	res := s.finalize()
	if s.audit != nil {
		s.auditResult(res)
	}
	return res
}

// placeTask runs the scheduling policy for t from origin's scheduler and
// charges the forwarding message if the task moves. The target's W_u grows
// at placement time — pending next-timestamp tasks are enqueued work and
// must be visible to subsequent load comparisons (§5.2: "incrementing it
// ... when a task is enqueued").
func (s *System) placeTask(t *task.Task, origin topology.UnitID) {
	t.Target = s.Sched.Place(t, origin)
	if t.Target < 0 {
		// The scheduler's no-live-unit verdict. Runtime paths normally abort
		// before reaching it (failUnit gives up when LiveUnits hits 0), but
		// indexing trueW at -1 must never be the failure mode.
		s.abort("no live unit can accept a task")
		return
	}
	s.trueW[t.Target] += t.Hint.EstimatedWorkload()
	if t.Target != origin {
		s.chargeMsg(origin, origin, t.Target, noc.CtrlBytes)
		s.Stats.Units[origin].TasksForwarded++
	}
}

// startTimestamp promotes pending tasks into the unit queues and begins
// the next bulk-synchronous phase, or finishes the simulation.
func (s *System) startTimestamp() {
	if len(s.pending) == 0 {
		s.finished = true
		s.Stats.Makespan = s.Engine.Now()
		return
	}
	s.curTS++
	s.Stats.Steps++
	if s.observer != nil {
		s.obsBeginPhase(s.curTS)
	}
	// The batch and the next phase's pending list swap buffers: nothing
	// reads a batch once its tasks are pushed, so its slice comes back as
	// the pending list of the phase after this one.
	batch := s.pending
	s.pending, s.spare = s.spare[:0], batch
	s.outstanding = int64(len(batch))
	for _, t := range batch {
		s.push(t)
	}
	for _, u := range s.units {
		s.dispatch(u)
	}
}

// push enqueues t on its target unit and issues its prefetch if it lands
// inside the prefetch window.
// The task's workload is already part of trueW (added at placement).
func (s *System) push(t *task.Task) {
	if s.flt != nil && s.flt.UnitDead(int(t.Target)) {
		// Placed before its target died (e.g. pending across the barrier);
		// re-place now, on a live unit.
		s.trueW[t.Target] -= t.Hint.EstimatedWorkload()
		t.Prefetched = false
		s.Stats.Faults.TasksRedistributed++
		if s.obsM != nil {
			s.obsM.FaultRedistributed()
		}
		s.redistribute(t, int(t.Target))
		return
	}
	u := s.units[t.Target]
	u.queue.Push(t)
	if w := s.Cfg.PrefetchWindow; w > 0 && u.queue.Len() <= w && !t.Prefetched {
		s.issuePrefetch(u, t)
	}
}

// afterPop issues the prefetch of the task that just slid into the window.
func (s *System) afterPop(u *unit) {
	w := s.Cfg.PrefetchWindow
	if w > 0 && u.queue.Len() >= w {
		if t := u.queue.At(w - 1); !t.Prefetched {
			s.issuePrefetch(u, t)
		}
	}
}

// issuePrefetch starts the transfers for all of t's hinted lines into
// t.Target's prefetch buffer and records their completion time.
func (s *System) issuePrefetch(u *unit, t *task.Task) {
	now := s.Engine.Now()
	ready := now
	for _, l := range t.Hint.Lines {
		if f := s.fetchLine(u.id, l, now); f > ready {
			ready = f
		}
	}
	t.PrefetchReady = ready
	t.Prefetched = true
}

// dispatch hands queued tasks to idle cores of u.
func (s *System) dispatch(u *unit) {
	if s.flt != nil && s.flt.UnitDead(int(u.id)) {
		return // dead cores run nothing
	}
	for {
		if u.queue.Len() == 0 {
			s.onIdle(u)
			return
		}
		ci := -1
		for i := range u.cores {
			if !u.cores[i].busy {
				ci = i
				break
			}
		}
		if ci < 0 {
			return
		}
		t := u.queue.Pop()
		s.trueW[u.id] -= t.Hint.EstimatedWorkload()
		s.afterPop(u)
		s.execute(u, ci, t)
	}
}

// completion carries the arguments of one pending task-completion event.
// Instances are recycled through System.compPool with their fire closure
// bound once, so scheduling a completion allocates nothing in steady state
// (the previous code allocated a fresh six-variable closure per task).
type completion struct {
	s        *System
	u        *unit
	ci       int
	t        *task.Task
	dur      int64
	stall    int64
	instrs   int64
	children []*task.Task
	fire     func()
}

// newCompletion returns a pooled completion with its closure pre-bound.
func (s *System) newCompletion() *completion {
	if n := len(s.compPool); n > 0 {
		c := s.compPool[n-1]
		s.compPool[n-1] = nil
		s.compPool = s.compPool[:n-1]
		return c
	}
	c := &completion{}
	c.fire = func() {
		cs, u, ci, t := c.s, c.u, c.ci, c.t
		dur, stall, instrs, children := c.dur, c.stall, c.instrs, c.children
		*c = completion{fire: c.fire}
		cs.compPool = append(cs.compPool, c)
		cs.complete(u, ci, t, dur, stall, instrs, children)
	}
	return c
}

// childBuf returns a recycled child-task slice for ExecCtx.children.
func (s *System) childBuf() []*task.Task {
	if n := len(s.childBufs); n > 0 {
		b := s.childBufs[n-1]
		s.childBufs[n-1] = nil
		s.childBufs = s.childBufs[:n-1]
		return b
	}
	return nil
}

// execute models one task on one core: residual prefetch stall, per-access
// SRAM reads, and the task's computation, then schedules its completion.
func (s *System) execute(u *unit, ci int, t *task.Task) {
	now := s.Engine.Now()
	if !t.Prefetched {
		s.issuePrefetch(u, t)
	}
	stall := t.PrefetchReady - now
	if stall < 0 {
		stall = 0
	}

	var instrs int64
	var children []*task.Task
	if t.Replay != nil {
		// Re-execution after a unit failure: application Execute calls are
		// not idempotent (they enqueue children), so replay the recorded
		// effects of the lost execution instead of calling Execute again.
		instrs = t.Replay.Instrs
		children = t.Replay.Children
		t.Replay = nil
	} else {
		// The per-System ExecCtx is reused across tasks; ownership of the
		// children slice is handed to the completion event below.
		s.execCtx.sys = s
		s.execCtx.unit = u.id
		s.execCtx.children = s.childBuf()
		instrs = s.app.Execute(t, &s.execCtx)
		children = s.execCtx.children
		s.execCtx.children = nil
	}

	st := &s.Stats.Units[u.id]
	st.StallCycles += stall
	st.Energy.CoreSRAM += float64(instrs)*s.Cfg.CorePJPerInstr +
		float64(len(t.Hint.Lines))*s.Cfg.SRAMPJPerAccess

	comp := int64(len(t.Hint.Lines))*s.sramHitCycles + instrs
	if s.flt != nil {
		if f := s.flt.CoreFactor(int(u.id), now); f > 1 {
			comp = int64(float64(comp)*f + 0.5) // straggler core slowdown
		}
	}
	dur := stall + comp
	if dur < 1 {
		dur = 1
	}
	u.cores[ci].busy = true
	c := s.newCompletion()
	c.s, c.u, c.ci, c.t = s, u, ci, t
	c.dur, c.stall, c.instrs, c.children = dur, stall, instrs, children
	s.Engine.After(dur, c.fire)
}

// complete finishes a task: frees the core, posts the main-element write,
// schedules children for the next timestamp, and triggers the barrier when
// the phase drains.
func (s *System) complete(u *unit, ci int, t *task.Task, dur, stall, instrs int64, children []*task.Task) {
	if s.flt != nil {
		if s.unrecoverable != "" {
			return
		}
		if s.flt.UnitDead(int(u.id)) {
			// The unit died mid-execution: the work is lost; re-run it on a
			// survivor. No core to free, no write posted, no task counted.
			s.recoverLost(u, t, instrs, children)
			return
		}
		s.fltWork[u.id] += t.Hint.EstimatedWorkload()
		s.fltBusy[u.id] += dur
	}
	u.cores[ci].busy = false
	u.cores[ci].activeCycles += dur
	st := &s.Stats.Units[u.id]
	st.TasksRun++
	s.Stats.Tasks++

	if s.observer != nil {
		s.obsTaskSpan(u, ci, taskSpan{
			kind: t.Kind, elem: t.Elem,
			end: s.Engine.Now(), dur: dur, stall: stall, stolen: t.Stolen,
		})
	}

	if s.tracer != nil {
		s.tracer(TaskTrace{
			TS:     t.TS,
			Cycle:  s.Engine.Now(),
			Unit:   u.id,
			Origin: t.Origin,
			Kind:   t.Kind,
			Elem:   t.Elem,
			Dur:    dur,
			Stall:  stall,
			Lines:  len(t.Hint.Lines),
			Stolen: t.Stolen,
		})
	}

	s.writeLine(u.id, t.Hint.Lines[0], s.Engine.Now())

	for _, c := range children {
		c.TS = t.TS + 1
		c.Origin = u.id
		if s.Cfg.SchedulingWindow > 0 {
			// Figure 4: generated tasks enter the local scheduling
			// window; the unit's scheduler places them asynchronously.
			u.schedQ = append(u.schedQ, c)
			s.schedQOutstanding++
			s.runScheduler(u)
		} else {
			s.placeTask(c, u.id)
			s.pending = append(s.pending, c)
			if s.audit != nil {
				s.auditSpawned++
			}
		}
	}

	// t is dead from here on: queue up its storage for the barrier and
	// recycle the children slice. Capture t.TS first — a barrier fired
	// below can hand t out again to a task spawned in the next phase.
	ts := t.TS
	s.retired = append(s.retired, t)
	if children != nil {
		s.childBufs = append(s.childBufs, children[:0])
	}

	s.outstanding--
	if s.outstanding == 0 {
		s.maybeBarrier()
		if s.finished || s.curTS != ts {
			return
		}
		// Barrier deferred on draining scheduling windows; keep cores fed.
		s.dispatch(u)
		return
	}
	s.dispatch(u)
}

// runScheduler drains u's scheduling window: up to SchedulingWindow tasks
// are placed per SchedulingPeriod, modeling the hardware task scheduler of
// Figure 4 that runs in parallel with the cores. The barrier waits for
// every window to drain (unplaced tasks are not yet part of `pending`).
func (s *System) runScheduler(u *unit) {
	if u.schedRunning || len(u.schedQ) == 0 {
		return
	}
	u.schedRunning = true
	s.Engine.After(s.Cfg.SchedulingPeriod, func() {
		n := s.Cfg.SchedulingWindow
		if n > len(u.schedQ) {
			n = len(u.schedQ)
		}
		for _, c := range u.schedQ[:n] {
			s.placeTask(c, u.id)
			s.pending = append(s.pending, c)
			if s.audit != nil {
				s.auditSpawned++
			}
		}
		u.schedQ = u.schedQ[n:]
		s.schedQOutstanding -= int64(n)
		u.schedRunning = false
		s.runScheduler(u)
		s.maybeBarrier()
	})
}

// maybeBarrier fires the timestamp barrier once all tasks have completed
// AND every scheduling window has drained.
func (s *System) maybeBarrier() {
	if s.finished {
		return
	}
	if s.outstanding == 0 && s.schedQOutstanding == 0 {
		s.endTimestamp()
	}
}

// endTimestamp is the bulk-synchronous barrier: apply updates, bulk
// invalidate every cache (§4.4 — the Traveller Cache holds only read-only
// per-timestamp data, so invalidation is a tag clear with no writebacks),
// and start the next phase.
func (s *System) endTimestamp() {
	s.app.EndTimestamp(s.curTS)
	for _, u := range s.units {
		if u.cache != nil {
			u.cache.InvalidateAll()
		}
		u.pfbuf.Invalidate()
		u.l1.Invalidate()
	}
	// Every task of the finished phase is now unreachable; make their
	// storage (and hint-line capacity) available to the next phase.
	for i, t := range s.retired {
		s.taskPool.Put(t)
		s.retired[i] = nil
	}
	s.retired = s.retired[:0]
	s.startTimestamp()
}

// scheduleExchange runs the periodic hierarchical workload exchange: every
// unit's W_u is snapshotted into the schedulers (§5.2), with the exchange
// messages charged but executed off the critical path.
func (s *System) scheduleExchange() {
	s.Engine.After(s.Cfg.ExchangeInterval, func() {
		if s.finished {
			return
		}
		if s.fltActive {
			// Ride the exchange: units report observed service rates along
			// with their loads, so the hybrid score can discount stragglers.
			// Gated on fltActive, not flt: a fault layer force-armed with an
			// empty plan must not perturb the rate estimates (the estimator
			// penalizes below-mean units even when nothing is faulty).
			s.updateServiceRates()
		}
		s.Sched.Exchange(s.trueW)
		s.chargeExchange()
		s.scheduleExchange()
	})
}

// chargeExchange accounts the messages of one hierarchical exchange: units
// report to a per-stack collector over the crossbar, then each stack
// broadcasts its collection to every other stack over the mesh.
func (s *System) chargeExchange() {
	ups := s.Cfg.UnitsPerStack
	for st := 0; st < s.Topo.Stacks(); st++ {
		collector := topology.UnitID(st * ups)
		for i := 1; i < ups; i++ {
			s.chargeMsg(collector, topology.UnitID(st*ups+i), collector, noc.CtrlBytes)
		}
		for other := 0; other < s.Topo.Stacks(); other++ {
			if other == st {
				continue
			}
			s.chargeMsg(collector, collector, topology.UnitID(other*ups), noc.CtrlBytes)
		}
	}
}

// onIdle is called when a unit runs out of queued tasks. Under design Sl it
// launches a work-stealing attempt (§2.3): pick the most loaded victim and
// move up to StealBatch tasks from its queue tail.
func (s *System) onIdle(u *unit) {
	if !s.Design.UsesStealing() || s.finished || s.outstanding == 0 || u.stealInFlight {
		return
	}
	if s.flt != nil && s.flt.UnitDead(int(u.id)) {
		return // dead units do not steal
	}
	// Classic randomized work stealing [Blumofe & Leiserson]: the thief
	// probes a uniformly random victim with a request/reply round trip; it
	// has no global view, so probes of empty victims come back empty and
	// cost the round trip. With InformedStealing the thief instead targets
	// the longest queue the last workload exchange reported — still stale
	// information, just better than chance.
	var victim topology.UnitID = -1
	if s.Cfg.InformedStealing {
		if s.queueLens == nil {
			s.queueLens = make([]int, len(s.units))
		}
		for i, w := range s.Sched.SnapshotLoads() {
			s.queueLens[i] = int(w)
		}
		victim = sched.PickVictim(u.id, s.queueLens, 1, s.Noc)
	}
	if victim < 0 {
		victim = topology.UnitID(s.stealRNG.Intn(len(s.units)))
		if victim == u.id {
			victim = topology.UnitID((int(victim) + 1) % len(s.units))
		}
	}
	if u.stealReply == nil {
		s.bindSteal(u)
	}
	u.stealInFlight = true
	u.stealVictim = victim
	s.chargeMsg(u.id, u.id, victim, noc.CtrlBytes)
	rtt := 2*s.Noc.Latency(u.id, victim) + 4
	s.Engine.After(rtt, u.stealReply)
}

// bindSteal binds u's steal events. A unit's probe is in flight from onIdle
// until its reply, or until the backoff after an empty reply ends, and
// onIdle starts no other meanwhile, so the reply reads the probe's victim
// from the unit.
func (s *System) bindSteal(u *unit) {
	u.stealReply = func() { s.arriveSteal(u, u.stealVictim) }
	u.stealRetry = func() {
		u.stealInFlight = false
		if u.queue.Len() == 0 {
			s.onIdle(u)
		}
	}
}

// arriveSteal completes a steal round trip: move tasks from the victim's
// queue tail to the thief, resetting their prefetch state (the data was
// heading for the victim's buffers, not the thief's). Empty probes back
// off exponentially so a starved system does not spin on probe traffic.
func (s *System) arriveSteal(u *unit, victim topology.UnitID) {
	if s.flt != nil && s.flt.UnitDead(int(u.id)) {
		return // the thief died while its probe was in flight
	}
	v := s.units[victim]
	n := v.queue.Len() / 2
	if n > s.Cfg.StealBatch {
		n = s.Cfg.StealBatch
	}
	s.stolen = v.queue.StealBack(s.stolen[:0], n)
	stolen := s.stolen
	if len(stolen) == 0 {
		if u.stealBackoff < 64 {
			u.stealBackoff = 64
		} else if u.stealBackoff < 512 {
			u.stealBackoff *= 2
		}
		s.Engine.After(u.stealBackoff, u.stealRetry)
		return
	}
	u.stealInFlight = false
	u.stealBackoff = 0
	if s.observer != nil {
		s.obsSteal(u.id, victim, len(stolen))
	}
	for _, t := range stolen {
		s.trueW[victim] -= t.Hint.EstimatedWorkload()
		s.trueW[u.id] += t.Hint.EstimatedWorkload()
		t.Target = u.id
		t.Prefetched = false
		t.Stolen = true
		s.chargeMsg(u.id, victim, u.id, noc.CtrlBytes)
		s.Stats.Units[u.id].TasksStolenIn++
		s.Stats.Units[victim].TasksStolenOut++
		s.push(t)
	}
	s.dispatch(u)
}
