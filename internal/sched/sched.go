// Package sched implements the task scheduling policies of Table 2:
//
//   - B:  co-locate with the main data element's home unit.
//   - Sm: lowest-distance mapping over all hint addresses (§2.3).
//   - Sl: Sm placement plus dynamic work stealing (stealing itself is
//     executed by the runtime; this package selects victims).
//   - Sh/O: the hybrid score of §5.2 — argmin over units of
//     costmem + B·costload — camp-aware for design O.
//
// Each NDP unit schedules locally using periodically exchanged load
// snapshots (§5.2); there is no central scheduler. The Scheduler type below
// is instantiated once per simulation and keeps per-origin "sent since last
// exchange" loads so that a unit immediately accounts for the load it has
// itself forwarded, preventing same-interval herding onto one idle unit.
package sched

import (
	"math"

	"abndp/internal/check"
	"abndp/internal/config"
	"abndp/internal/core"
	"abndp/internal/mem"
	"abndp/internal/noc"
	"abndp/internal/task"
	"abndp/internal/topology"
)

// Scheduler scores candidate units for task placement with the place
// function of the policy it was built for.
type Scheduler struct {
	place    PlaceFunc
	cost     *core.CostModel
	camps    *core.CampMap
	noc      *noc.Model
	units    int
	perStack int // stack s holds units s*perStack to (s+1)*perStack-1
	hybridB  float64

	// degraded counts load terms clamped because the effective load view
	// turned non-finite — each one a placement decision whose load half was
	// silently disabled before the clamp existed. Surfaced through the
	// observer (obs.Metrics.SchedDegraded) and the end-of-run audit.
	degraded int64

	// snapW is the last exchanged workload snapshot. rows[origin] lists
	// the load origin has forwarded to each target since that exchange,
	// one entry per target in the order of its first placement; an origin
	// places on a few targets per interval, so the rows hold far fewer
	// entries than a units x units table. Only the load-reading policies
	// need them, so the first loadView allocates rows; until then it is
	// nil and Place and Exchange skip it.
	snapW []float64
	rows  [][]forward

	// scratch reused across Place calls: loadView's dense copy of one
	// origin's row (all zeros between calls), the effective load view, and
	// the costmem kernel's working memory, which holds the form it
	// computed last.
	fwdBuf  []float64
	loadBuf []float64
	form    *core.FormScratch

	// The exact view (see loadView). view says what loadBuf holds between
	// placements. While it is viewExact, loadBuf is the snapshot except
	// the targets of patchedOrigin's first patchedN row entries, which
	// hold that origin's view; snapSum and snapAbs are the snapshot's
	// exact sum and absolute sum; and least[st] is stack st's first unit
	// of least load in loadBuf, snapLeast[st] in the snapshot. The first
	// exact view allocates least and snapLeast.
	view          viewState
	snapSum       int64
	snapAbs       int64
	patchedOrigin topology.UnitID
	patchedN      int
	least         []topology.UnitID
	snapLeast     []topology.UnitID

	// dead, when non-nil, marks failed units (aliased from the fault
	// injector): they are excluded from every candidate set, and a task
	// whose home died is redirected to the nearest live unit. rates, when
	// non-nil, holds per-unit observed service rates (1 = nominal); the
	// hybrid load term divides by them, so a measured straggler looks
	// proportionally more loaded and sheds work.
	dead  []bool
	rates []float64

	// store, when non-nil, memoizes costmem stack forms across runs: the
	// checkpoint store's entry point into placement (internal/ckpt). It is
	// consulted only while no dead-unit mask is installed — under faults
	// costmem stops being a pure function of the hint and every placement
	// computes its form.
	store FormStore

	// scoreHook, when non-nil, receives the score breakdown of every
	// placement decision: the memory (remote-access cost) term and the
	// load term of the unit the task was actually sent to. Nil by default;
	// the disabled path is one branch per Place call.
	scoreHook func(origin, target topology.UnitID, memCost, loadTerm float64)

	// audit, when non-nil, verifies every placement decision (finite score
	// terms, non-negative memory cost, never a dead target) and every
	// exchanged snapshot (finite, non-negative loads). auditNow supplies
	// the violation timestamps; the scheduler has no clock of its own.
	audit    *check.Checker
	auditNow func() int64
}

// New builds a scheduler running the given policy (panics on an unknown
// one — config.Validate rejects it long before this point). campAware must
// match the cost model: design O schedules against camp locations, every
// other design against homes. The hybrid weight B comes from
// cfg.HybridAlpha.
func New(policy config.Policy, cost *core.CostModel, camps *core.CampMap, n *noc.Model, cfg *config.Config) *Scheduler {
	topo := n.Topology()
	units := topo.Units()
	return &Scheduler{
		place:    placeFunc(policy),
		cost:     cost,
		camps:    camps,
		noc:      n,
		units:    units,
		perStack: topo.Config().UnitsPerStack,
		hybridB:  core.HybridWeight(n, cfg.HybridAlpha),
		snapW:    make([]float64, units),
		fwdBuf:   make([]float64, units),
		loadBuf:  make([]float64, units),
		form:     cost.NewFormScratch(),
	}
}

// DegradedLoads returns how many load terms were clamped because the
// effective load view turned non-finite — zero on every healthy run.
func (s *Scheduler) DegradedLoads() int64 { return s.degraded }

// HybridB returns the hybrid weight B in cycles (for tests).
func (s *Scheduler) HybridB() float64 { return s.hybridB }

// forward is one entry of an origin's row: the load forwarded to target
// since the last exchange.
type forward struct {
	target topology.UnitID
	load   float64
}

// Exchange installs a fresh workload snapshot (the periodic hierarchical
// exchange of §5.2) and empties the per-origin rows, if any exist. The next
// loadView builds the interval's view from the snapshot.
func (s *Scheduler) Exchange(trueW []float64) {
	copy(s.snapW, trueW)
	for o, row := range s.rows {
		s.rows[o] = row[:0]
	}
	s.view = viewStale
	if s.audit != nil {
		s.audit.Tick()
		for u, w := range s.snapW {
			// A small negative residual is float cancellation from the
			// enqueue/dequeue churn, not an accounting bug.
			if math.IsNaN(w) || math.IsInf(w, 0) || w < -1e-6 {
				s.audit.Violationf("sched.snapshot", s.auditCycle(),
					"unit %d exchanged load %v (negative or non-finite)", u, w)
			}
		}
	}
}

// SnapshotLoads returns the last exchanged load snapshot. Work stealing
// uses it for victim selection — a thief knows other units' loads only
// through the same periodic exchange the hybrid policy uses, never
// instantaneously.
func (s *Scheduler) SnapshotLoads() []float64 { return s.snapW }

// SetDeadMask installs the fault layer's dead-unit mask (aliased, updated
// in place as units fail). Nil — the default — means all units are alive.
func (s *Scheduler) SetDeadMask(dead []bool) { s.dead = dead }

// SetServiceRates installs the per-unit observed service rates used by the
// hybrid load term (nil disables the correction).
func (s *Scheduler) SetServiceRates(rates []float64) { s.rates = rates }

// Alive reports whether unit u may receive work.
func (s *Scheduler) Alive(u topology.UnitID) bool {
	return s.dead == nil || !s.dead[u]
}

// NearestLive returns u itself when alive, otherwise the live unit with the
// lowest interconnect latency from u (ties toward the lowest ID) — where a
// dead unit's work lands when no policy produces a better choice. Returns
// -1 when every unit is dead.
func (s *Scheduler) NearestLive(u topology.UnitID) topology.UnitID {
	if s.Alive(u) {
		return u
	}
	best := topology.UnitID(-1)
	var bestLat int64
	for v := 0; v < s.units; v++ {
		if s.dead[v] {
			continue
		}
		lat := s.noc.Latency(u, topology.UnitID(v))
		if best < 0 || lat < bestLat {
			best, bestLat = topology.UnitID(v), lat
		}
	}
	return best
}

// FormStore memoizes costmem stack forms (core.StackForm) across runs,
// keyed by a hint's full line list; *ckpt.Shard is the one outside tests.
// Get returns the stored form, or nil on a miss. Put offers the form the
// scheduler computed after a miss; the store copies it if it keeps it. A
// stored form must be bit-identical to the one the kernel computes for
// the same lines; under that contract a store never changes which unit
// Place returns, which the checkpoint parity tests enforce end to end via
// result hashes.
type FormStore interface {
	Get(lines []mem.Line) []uint64
	Put(lines []mem.Line, form []uint64)
}

// SetFormStore installs (or, with nil, removes) the stack-form store.
func (s *Scheduler) SetFormStore(st FormStore) { s.store = st }

// memForm returns the costmem stack form of a hint: the store's when it
// holds one (never consulted while a dead mask is in force), else the
// kernel's, which lives in the scheduler's scratch until the next call and
// is offered to the store.
func (s *Scheduler) memForm(lines []mem.Line) core.StackForm {
	if s.store == nil || s.dead != nil {
		return s.cost.MemCostForm(s.form, lines)
	}
	if f := s.store.Get(lines); f != nil {
		return f
	}
	f := s.cost.MemCostForm(s.form, lines)
	s.store.Put(lines, f)
	return f
}

// SetScoreHook installs (or, with nil, removes) the per-decision score
// breakdown callback. Observability only: the hook must not influence
// placement, and installing it never changes which unit Place returns.
func (s *Scheduler) SetScoreHook(f func(origin, target topology.UnitID, memCost, loadTerm float64)) {
	s.scoreHook = f
}

// SetAudit installs (or, with nil, removes) the invariant checker. now
// supplies violation timestamps (typically the engine clock); a nil now
// stamps violations with cycle -1. Like the score hook, auditing is
// read-only and never changes which unit Place returns.
func (s *Scheduler) SetAudit(c *check.Checker, now func() int64) {
	s.audit = c
	s.auditNow = now
}

func (s *Scheduler) auditCycle() int64 {
	if s.auditNow != nil {
		return s.auditNow()
	}
	return -1
}

// Place chooses the execution unit for t, scheduled by origin's scheduler,
// and records the forwarded load in origin's row once a policy has read
// loads. Every load-reading policy calls loadView before it returns, so
// the first such Place allocates the rows before recording into them and
// no forwarded load goes unrecorded. Ties break toward the lowest unit ID
// so results are deterministic.
func (s *Scheduler) Place(t *task.Task, origin topology.UnitID) topology.UnitID {
	target, memCost, loadTerm := s.place(s, t, origin)
	if target < 0 {
		// No live unit can accept the task (every unit is dead). Return
		// the verdict without recording load on unit -1 and without
		// invoking the hook.
		return -1
	}
	if s.rows != nil {
		s.record(origin, target, t.Hint.EstimatedWorkload())
	}
	if s.audit != nil {
		s.audit.Tick()
		if s.dead != nil && s.dead[target] {
			s.audit.Violationf("sched.deadtarget", s.auditCycle(),
				"task placed on dead unit %d", target)
		}
		if math.IsNaN(memCost) || math.IsInf(memCost, 0) || memCost < 0 {
			s.audit.Violationf("sched.memcost", s.auditCycle(),
				"placement on unit %d with memory cost %v", target, memCost)
		}
		if math.IsNaN(loadTerm) || math.IsInf(loadTerm, 0) {
			s.audit.Violationf("sched.loadterm", s.auditCycle(),
				"placement on unit %d with load term %v", target, loadTerm)
		}
	}
	if s.scoreHook != nil {
		s.scoreHook(origin, target, memCost, loadTerm)
	}
	return target
}

// record adds w to the load origin has forwarded to target, appending the
// target's entry on its first placement since the exchange. Each entry's
// sum takes its terms in placement order, starting from the first, so it
// is the same float sequence a dense per-pair accumulator starting at zero
// would hold (w is never -0: workloads are positive or a line count).
func (s *Scheduler) record(origin, target topology.UnitID, w float64) {
	row := s.rows[origin]
	for i := range row {
		if row[i].target == target {
			row[i].load += w
			return
		}
	}
	s.rows[origin] = append(row, forward{target, w})
}

// placeHome co-locates t with its main data element's home unit, or the
// nearest live unit when the home is dead.
func (s *Scheduler) placeHome(t *task.Task, _ topology.UnitID) (topology.UnitID, float64, float64) {
	target := s.camps.Home(t.Hint.Lines[0])
	if s.dead != nil {
		target = s.NearestLive(target)
	}
	return target, 0, 0
}

func (s *Scheduler) placeLowestDistance(t *task.Task, _ topology.UnitID) (topology.UnitID, float64, float64) {
	// Ties break toward the main element's home: with symmetric data many
	// units score equally, and a fixed lowest-ID tie-break would pile
	// every such task onto unit 0.
	home := s.camps.Home(t.Hint.Lines[0])
	if s.dead != nil {
		home = s.NearestLive(home)
		if home < 0 {
			return -1, 0, 0 // every unit is dead
		}
	}
	return s.argmin(s.memForm(t.Hint.Lines), home, 0, false)
}

// argmin returns the unit a costmem-reading policy places on, with its
// memory cost and load term, from the task's stack form f. The result is
// the dense strict-improvement loop's: start at home, then take each live
// unit, in unit order, whose score is strictly lower. A unit's score is
// its memory cost, plus its load term when hybrid. argmin reads f in
// place, in two phases:
//
//   - Phase A scores every live unit at its stack's value and keeps the
//     first, in unit order, that reaches the lowest score. Without a load
//     term the live units of a stack score alike, so it scores the first
//     of each stack only. Under an exact view it scores each stack's
//     least-loaded unit, and only when that beats the running minimum
//     the units before it, for the first that ties it: with B >= 0 and
//     mean > 0 the score is monotone in the load, so no unit of the
//     stack scores below its least-loaded one.
//   - Phase B scores the listed live units at their own values and keeps
//     the first that reaches the lowest score.
//
// This is exact. A unit that is not listed has its stack's value, and a
// listed unit's value is below it, so phase A's score bounds each unit's
// true score from above (fl(a+b) is monotone in a) and the true minimum m
// is the lower of the two phases' minima. The dense loop returns home when
// home scores m, else the lowest-ID unit that does. When phase A reaches
// m, its unit scores m too, and no unlisted unit below it does; every
// other unit that scores m is listed, and phase B's is the lowest of
// those. Phase A's unit wins only when it is not listed: a listed unit
// that scores m is also phase B's candidate, and phase B's unit is then no
// higher, so the tie goes to phase B and its unit's own value.
func (s *Scheduler) argmin(f core.StackForm, home topology.UnitID, mean float64, hybrid bool) (topology.UnitID, float64, float64) {
	per, dead := s.perStack, s.dead
	loads, weight := s.loadBuf, s.hybridB
	a, aStack, aScore := -1, 0, math.Inf(1)
	for st := range f.Stacks() {
		v := f.Stack(st)
		if hybrid && s.view == viewExact {
			low := v + loadTerm(weight, loads[s.least[st]], mean)
			if low < aScore {
				a, aStack, aScore = s.firstAt(st, v, low, mean), st, low
			}
			continue
		}
		for u := st * per; u < (st+1)*per; u++ {
			if dead != nil && dead[u] {
				continue
			}
			if !hybrid {
				if v < aScore {
					a, aStack, aScore = u, st, v
				}
				break // the stack's other live units score alike
			}
			if score := v + loadTerm(weight, loads[u], mean); score < aScore {
				a, aStack, aScore = u, st, score
			}
		}
	}

	homeMem := f.Stack(int(s.noc.Topology().StackOf(home)))
	b, bScore, bMem := topology.UnitID(-1), math.Inf(1), 0.0
	ls := f.Listing()
	for i := range ls.Len() {
		u, v := ls.Unit(i), ls.Value(i)
		if u == home {
			homeMem = v
		}
		if dead != nil && dead[u] {
			continue
		}
		score := v
		if hybrid {
			score += loadTerm(weight, loads[u], mean)
		}
		if score < bScore {
			b, bScore, bMem = u, score, v
		}
	}

	m := min(aScore, bScore)
	homeScore, homeLoad := homeMem, 0.0
	if hybrid {
		homeLoad = loadTerm(weight, loads[home], mean)
		homeScore = homeMem + homeLoad
	}
	if homeScore == m {
		return home, homeMem, homeLoad
	}
	// The callers return early when every unit is dead, so a is a unit.
	best, bestMem := b, bMem
	if aScore == m && (bScore > m || topology.UnitID(a) < b) {
		best, bestMem = topology.UnitID(a), f.Stack(aStack)
	}
	if !hybrid {
		return best, bestMem, 0
	}
	return best, bestMem, loadTerm(weight, loads[best], mean)
}

// loadTerm is a unit's load term in a score: the weight B times the
// relative excess of its effective load over the mean.
func loadTerm(weight, load, mean float64) float64 {
	return weight * (load/mean - 1)
}

// firstAt returns the first unit of stack st whose score, v plus its
// load term, equals low, the score of the stack's least-loaded unit under
// the exact view: the first unit of the stack to reach its lowest score.
// Only the units before the least-loaded one need a look.
func (s *Scheduler) firstAt(st int, v, low, mean float64) int {
	least := int(s.least[st])
	for u := st * s.perStack; u < least; u++ {
		if v+loadTerm(s.hybridB, s.loadBuf[u], mean) == low {
			return u
		}
	}
	return least
}

// viewState is what loadBuf holds between placements.
type viewState uint8

const (
	// viewStale: an Exchange installed a snapshot that no view has read.
	viewStale viewState = iota
	// viewExact: the snapshot, patched with the last view's targets.
	viewExact
	// viewDense: whatever the dense path wrote; dense until the next
	// Exchange.
	viewDense
)

// exactLimit bounds the absolute loads an exact view sums: integers of
// magnitude below 2^53 are floats, and every sum of them whose absolute
// terms stay below 2^53 is exact in any order.
const exactLimit = 1 << 53

// loadView fills s.loadBuf with origin's effective per-unit load — the
// snapshot plus what origin has forwarded since, amplified by the unit
// count as a mean-field correction — and returns the floored live-unit
// mean (live == 0 when every unit is dead). Every scheduler sees the same
// stale snapshot, so without the correction all origins would pile onto
// whatever unit the snapshot shows as idle until the next exchange;
// amplifying the own delta makes each origin act as if its peers place
// symmetrically, which caps the collective overshoot at roughly one
// origin's worth. The mean is floored at hybridMeanFloor: with near-empty
// queues a one-task difference is quantization noise, not imbalance, and
// must not dominate the other score terms.
//
// Between two exchanges the view changes only at origin's few targets, so
// while the interval qualifies it is kept exactly instead of rebuilt:
// every effective load is an integer, their absolute values sum below
// 2^53 (exactLimit), no dead mask or service rates are installed, and B is
// finite. Every built-in workload qualifies without a fault plan. The
// first view of an interval copies the snapshot into loadBuf and takes its
// exact integer sum and each stack's least-loaded unit (buildExact). Each
// view then puts the snapshot's loads and least-loaded units back where
// the last view patched them, patches in origin's targets, adjusts the sum
// by their deltas and finds the least-loaded unit again in their stacks
// (patchView). The integer sum is the dense path's float sum, which is
// exact, so the mean is bit-identical, and so is every load. An interval
// that does not qualify, from the view that finds it so (the first
// fractional forwarded load, say) to the next exchange, takes the dense
// path below, which is also the reference.
func (s *Scheduler) loadView(origin topology.UnitID) (mean float64, live int) {
	if s.rows == nil {
		s.rows = make([][]forward, s.units)
	}
	if s.dead == nil && s.rates == nil {
		if s.view == viewStale {
			s.buildExact()
		}
		if s.view == viewExact {
			if sum, ok := s.patchView(origin); ok {
				return floorMean(float64(sum) / float64(s.units)), s.units
			}
		}
	}
	s.view = viewDense
	return s.denseView(origin)
}

// buildExact starts an exact interval from the snapshot when it
// qualifies (see loadView), and leaves the view dense when it does not.
func (s *Scheduler) buildExact() {
	s.view = viewDense
	if !(s.hybridB >= 0 && s.hybridB <= math.MaxFloat64) {
		return // an infinite or NaN weight breaks the monotone score
	}
	var sum, abs int64
	for u, w := range s.snapW {
		// NaN fails the first test and ±Inf the second.
		if w != math.Trunc(w) || math.Abs(w) >= exactLimit {
			return
		}
		n := int64(w)
		if abs += max(n, -n); abs >= exactLimit {
			return
		}
		sum += n
		s.loadBuf[u] = float64(n) // -0 reads as +0, as the dense path's w + 0 does
	}
	if s.least == nil {
		s.least = make([]topology.UnitID, s.units/s.perStack)
		s.snapLeast = make([]topology.UnitID, len(s.least))
	}
	for st := range s.least {
		s.setLeast(st)
	}
	copy(s.snapLeast, s.least)
	s.snapSum, s.snapAbs = sum, abs
	s.patchedOrigin, s.patchedN = 0, 0
	s.view = viewExact
}

// patchView turns the exact view into origin's and returns its exact
// load sum. It reports false, with loadBuf half patched, when a patched
// load is not an integer or the absolute loads reach exactLimit; the
// caller then takes the dense path for the rest of the interval.
func (s *Scheduler) patchView(origin topology.UnitID) (int64, bool) {
	old, row := s.rows[s.patchedOrigin][:s.patchedN], s.rows[origin]
	for _, f := range old {
		s.loadBuf[f.target] = float64(int64(s.snapW[f.target]))
	}
	amp := float64(s.units)
	sum, abs := s.snapSum, s.snapAbs
	for _, f := range row {
		w := s.snapW[f.target] + f.load*amp
		if w != math.Trunc(w) || math.Abs(w) >= exactLimit {
			return 0, false
		}
		o, n := int64(s.snapW[f.target]), int64(w)
		sum += n - o
		abs += max(n, -n) - max(o, -o)
		s.loadBuf[f.target] = w
	}
	if abs >= exactLimit {
		return 0, false
	}
	// The last view's stacks hold the snapshot again unless a target of
	// origin's is in them too, and those are scanned after. A row holds a
	// few targets, so a stack holding two is scanned twice.
	topo := s.noc.Topology()
	for _, f := range old {
		st := topo.StackOf(f.target)
		s.least[st] = s.snapLeast[st]
	}
	for _, f := range row {
		s.setLeast(int(topo.StackOf(f.target)))
	}
	s.patchedOrigin, s.patchedN = origin, len(row)
	return sum, true
}

// setLeast sets stack st's least-loaded unit from loadBuf: the first of
// its units whose load is least.
func (s *Scheduler) setLeast(st int) {
	lo := st * s.perStack
	least := lo
	for u := lo + 1; u < lo+s.perStack; u++ {
		if s.loadBuf[u] < s.loadBuf[least] {
			least = u
		}
	}
	s.least[st] = topology.UnitID(least)
}

// denseView is loadView's dense path: it reads every unit, clamps
// non-finite loads and divides by the service rates.
func (s *Scheduler) denseView(origin topology.UnitID) (mean float64, live int) {
	// Spread origin's row over the zeroed scratch, so the loop below reads
	// every unit's forwarded load by index, and zero it again after.
	d, row := s.fwdBuf, s.rows[origin]
	for _, f := range row {
		d[f.target] = f.load
	}
	amp := float64(s.units)
	var sum float64
	for u := 0; u < s.units; u++ {
		w := s.snapW[u] + d[u]*amp
		if s.rates != nil && s.rates[u] > 0 {
			// A unit serving at half its nominal rate is effectively twice
			// as loaded: dividing by the observed rate makes measured
			// stragglers shed work without any explicit straggler signal.
			w /= s.rates[u]
		}
		if math.IsNaN(w) || math.IsInf(w, 0) {
			// A non-finite load term would make every score comparison
			// false and silently disable the load half of the policy.
			// Clamp it so one poisoned unit cannot break placement, count
			// the degradation so it is visible at end of run (the observer
			// and the end-of-run audit both report it), and leave a
			// per-decision audit trail when the checker is armed.
			s.degraded++
			if s.audit != nil {
				s.audit.Violationf("sched.load", s.auditCycle(),
					"unit %d load term %v is not finite", u, w)
			}
			w = 0
		}
		s.loadBuf[u] = w
		if s.dead != nil && s.dead[u] {
			continue // dead units contribute nothing to the mean
		}
		sum += w
		live++
	}
	for _, f := range row {
		d[f.target] = 0
	}
	if live == 0 {
		return 0, 0
	}
	return floorMean(sum / float64(live)), live
}

// floorMean floors a mean load at hybridMeanFloor.
func floorMean(mean float64) float64 {
	return max(mean, hybridMeanFloor)
}

// hybridMeanFloor, the floor of the load-reading policies' mean load, is
// about two tasks' default workload estimate.
const hybridMeanFloor = 32

func (s *Scheduler) placeHybrid(t *task.Task, origin topology.UnitID) (topology.UnitID, float64, float64) {
	mean, live := s.loadView(origin)
	if live == 0 {
		// Every unit is dead. The old code divided by zero here, poisoning
		// mean to NaN so every score comparison was false and the stale
		// `best` index went out of bounds. Return the explicit
		// no-live-unit verdict (the same -1 NearestLive reports) instead.
		return -1, 0, 0
	}

	// Ties break toward the main element's home, as in lowest-distance.
	// The two score components are returned separately so the
	// observability hook can attribute each decision to its remote-cost
	// vs. load term.
	home := s.camps.Home(t.Hint.Lines[0])
	if s.dead != nil {
		home = s.NearestLive(home)
	}
	return s.argmin(s.memForm(t.Hint.Lines), home, mean, true)
}

// placeLoadOnly is the loadonly policy: argmin over live units of the load
// term alone, ignoring data distance entirely. It is the missing corner of
// the paper's co-optimization claim — campaigns compare hybrid (both
// terms) against lowestdist (distance only) and loadonly (balance only).
func (s *Scheduler) placeLoadOnly(t *task.Task, origin topology.UnitID) (topology.UnitID, float64, float64) {
	mean, live := s.loadView(origin)
	if live == 0 {
		return -1, 0, 0 // every unit is dead
	}
	// Ties break toward the main element's home, then strict improvement in
	// unit-ID order — the same deterministic tie-break as the other policies.
	best := s.camps.Home(t.Hint.Lines[0])
	if s.dead != nil {
		best = s.NearestLive(best)
	}
	bestLoad := loadTerm(s.hybridB, s.loadBuf[best], mean)
	for u := 0; u < s.units; u++ {
		if s.dead != nil && s.dead[u] {
			continue
		}
		if load := loadTerm(s.hybridB, s.loadBuf[u], mean); load < bestLoad {
			best, bestLoad = topology.UnitID(u), load
		}
	}
	return best, 0, bestLoad
}

// PickVictim selects the work-stealing victim for an idle thief: the unit
// with the longest queue, provided it has more than minQueue tasks. It
// returns -1 when no unit qualifies. Ties break toward the unit closest to
// the thief (cheapest steal), then lowest ID.
func PickVictim(thief topology.UnitID, queueLens []int, minQueue int, n *noc.Model) topology.UnitID {
	best := topology.UnitID(-1)
	bestLen := 0
	var bestLat int64
	for u, l := range queueLens {
		uid := topology.UnitID(u)
		if uid == thief || l <= minQueue {
			continue
		}
		lat := n.Latency(thief, uid)
		if best < 0 || l > bestLen || (l == bestLen && lat < bestLat) {
			best, bestLen, bestLat = uid, l, lat
		}
	}
	return best
}
