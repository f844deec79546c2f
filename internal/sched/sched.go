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
	"fmt"
	"math"

	"abndp/internal/check"
	"abndp/internal/config"
	"abndp/internal/core"
	"abndp/internal/noc"
	"abndp/internal/task"
	"abndp/internal/topology"
)

// Scheduler scores candidate units for task placement. Its placement
// algorithm is a registered Policy (registry.go) resolved by name at
// construction — policies are data, not switch arms.
type Scheduler struct {
	policy  *Policy
	params  map[string]float64 // resolved policy params (defaults + overrides)
	cost    *core.CostModel
	camps   *core.CampMap
	noc     *noc.Model
	units   int
	hybridB float64

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

	// scratch buffers reused across Place calls: loadView's dense copy of
	// one origin's row (all zeros between calls), the effective load view,
	// and the costmem vector with its kernel's working memory.
	fwdBuf     []float64
	loadBuf    []float64
	vecBuf     []float64
	vecScratch *core.VecScratch

	// dead, when non-nil, marks failed units (aliased from the fault
	// injector): they are excluded from every candidate set, and a task
	// whose home died is redirected to the nearest live unit. rates, when
	// non-nil, holds per-unit observed service rates (1 = nominal); the
	// hybrid load term divides by them, so a measured straggler looks
	// proportionally more loaded and sheds work.
	dead  []bool
	rates []float64

	// costVec, when non-nil, supplies a precomputed costmem vector for a
	// task (core.MemCostVec, the kernel the inline path runs) or nil to
	// fall back to inline evaluation. It is the checkpoint store's entry
	// point into placement (internal/ckpt) and is consulted only while no
	// dead-unit mask is installed — under faults costmem stops being a pure
	// function of the hint and every placement computes its vector inline.
	costVec func(t *task.Task) []float64

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

// New builds a scheduler running the named registered policy (panics on an
// unknown name — config.Validate rejects it long before this point).
// campAware must match the cost model: design O schedules against camp
// locations, every other design against homes. Policy parameters resolve
// from the registry defaults overridden by cfg.PolicyParams; the hybrid
// weight B keeps coming from the first-class cfg.HybridAlpha knob.
func New(policy string, cost *core.CostModel, camps *core.CampMap, n *noc.Model, cfg *config.Config) *Scheduler {
	p, ok := Lookup(policy)
	if !ok {
		panic(fmt.Sprintf("sched: unknown policy %q (registered: %v)", policy, Policies()))
	}
	params := make(map[string]float64, len(p.Params))
	for _, spec := range p.Params {
		v := spec.Default
		if ov, set := cfg.PolicyParams[spec.Name]; set && cfg.SchedPolicy == p.Name {
			v = ov
		}
		params[spec.Name] = v
	}
	units := n.Topology().Units()
	return &Scheduler{
		policy:     p,
		params:     params,
		cost:       cost,
		camps:      camps,
		noc:        n,
		units:      units,
		hybridB:    core.HybridWeight(n, cfg.HybridAlpha),
		snapW:      make([]float64, units),
		fwdBuf:     make([]float64, units),
		loadBuf:    make([]float64, units),
		vecBuf:     make([]float64, units),
		vecScratch: cost.NewVecScratch(),
	}
}

// PolicyName returns the name of the scheduler's placement policy.
func (s *Scheduler) PolicyName() string { return s.policy.Name }

// Param returns the resolved value of a declared policy parameter (the
// registered default unless cfg.PolicyParams overrode it). Unknown names
// return 0; policies only ask for parameters they declared.
func (s *Scheduler) Param(name string) float64 { return s.params[name] }

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
// exchange of §5.2) and empties the per-origin rows, if any exist.
func (s *Scheduler) Exchange(trueW []float64) {
	copy(s.snapW, trueW)
	for o, row := range s.rows {
		s.rows[o] = row[:0]
	}
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

// SetCostVecSource installs (or, with nil, removes) the precomputed
// costmem-vector source. The source must return either nil (miss — the
// scheduler evaluates costs inline) or a vector whose entries are
// bit-identical to what the inline path would compute; under that contract
// installing a source never changes which unit Place returns, which the
// checkpoint parity tests enforce end to end via result hashes.
func (s *Scheduler) SetCostVecSource(f func(t *task.Task) []float64) {
	s.costVec = f
}

// memVec returns t's costmem vector: the source's when it supplies one
// (never while a dead mask is in force), else the kernel's, written into
// the scheduler's reusable buffer.
func (s *Scheduler) memVec(t *task.Task) []float64 {
	if s.costVec != nil && s.dead == nil {
		if vec := s.costVec(t); vec != nil {
			return vec
		}
	}
	s.cost.MemCostVecInto(s.vecBuf, s.vecScratch, t.Hint.Lines)
	return s.vecBuf
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
	target, memCost, loadTerm := s.policy.Place(s, t, origin)
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

func (s *Scheduler) placeLowestDistance(t *task.Task) (topology.UnitID, float64) {
	// Ties break toward the main element's home: with symmetric data many
	// units score equally, and a fixed lowest-ID tie-break would pile
	// every such task onto unit 0.
	best := s.camps.Home(t.Hint.Lines[0])
	if s.dead != nil {
		best = s.NearestLive(best)
		if best < 0 {
			return -1, 0 // every unit is dead
		}
	}
	vec := s.memVec(t)
	bestCost := vec[best]
	for u, c := range vec {
		if c < bestCost && s.Alive(topology.UnitID(u)) {
			best, bestCost = topology.UnitID(u), c
		}
	}
	return best, bestCost
}

// loadView fills s.loadBuf with origin's effective per-unit load — the
// snapshot plus what origin has forwarded since, amplified by the unit
// count as a mean-field correction — and returns the floored live-unit
// mean (live == 0 when every unit is dead). Every scheduler sees the same
// stale snapshot, so without the correction all origins would pile onto
// whatever unit the snapshot shows as idle until the next exchange;
// amplifying the own delta makes each origin act as if its peers place
// symmetrically, which caps the collective overshoot at roughly one
// origin's worth. The mean is floored (by default at roughly two queued
// tasks per unit): with near-empty queues a one-task difference is
// quantization noise, not imbalance, and must not dominate the other
// score terms.
func (s *Scheduler) loadView(origin topology.UnitID, meanFloor float64) (mean float64, live int) {
	if s.rows == nil {
		s.rows = make([][]forward, s.units)
	}
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
	mean = sum / float64(live)
	if mean < meanFloor {
		mean = meanFloor
	}
	return mean, live
}

// hybridMeanFloor is about two tasks' default workload estimate.
const hybridMeanFloor = 32

func (s *Scheduler) placeHybrid(t *task.Task, origin topology.UnitID) (topology.UnitID, float64, float64) {
	mean, live := s.loadView(origin, hybridMeanFloor)
	if live == 0 {
		// Every unit is dead. The old code divided by zero here, poisoning
		// mean to NaN so every score comparison was false and the stale
		// `best` index went out of bounds. Return the explicit
		// no-live-unit verdict (the same -1 NearestLive reports) instead.
		return -1, 0, 0
	}

	// Ties break toward the main element's home, as in lowest-distance.
	// The two score components are tracked separately so the observability
	// hook can attribute each decision to its remote-cost vs. load term;
	// their sum is the same arithmetic as before.
	best := s.camps.Home(t.Hint.Lines[0])
	if s.dead != nil {
		best = s.NearestLive(best)
	}
	vec := s.memVec(t)
	bestMem := vec[best]
	bestLoad := s.hybridB * (s.loadBuf[best]/mean - 1)
	bestScore := bestMem + bestLoad
	for u, mem := range vec {
		if s.dead != nil && s.dead[u] {
			continue
		}
		load := s.hybridB * (s.loadBuf[u]/mean - 1)
		if score := mem + load; score < bestScore {
			best, bestScore, bestMem, bestLoad = topology.UnitID(u), score, mem, load
		}
	}
	return best, bestMem, bestLoad
}

// placeLoadOnly is the "loadonly" registered policy: argmin over live
// units of the load term alone, ignoring data distance entirely. It is the
// missing corner of the paper's co-optimization claim — campaigns compare
// hybrid (both terms) against lowestdist (distance only) and loadonly
// (balance only). The mean floor is a declared policy parameter ("floor")
// instead of a compile-time constant, exercising the generic parameter
// path end to end (config validation, cache keys, campaign sweeps).
func (s *Scheduler) placeLoadOnly(t *task.Task, origin topology.UnitID) (topology.UnitID, float64, float64) {
	mean, live := s.loadView(origin, s.Param("floor"))
	if live == 0 {
		return -1, 0, 0 // every unit is dead
	}
	// Ties break toward the main element's home, then strict improvement in
	// unit-ID order — the same deterministic tie-break as the other policies.
	best := s.camps.Home(t.Hint.Lines[0])
	if s.dead != nil {
		best = s.NearestLive(best)
	}
	bestLoad := s.hybridB * (s.loadBuf[best]/mean - 1)
	for u := 0; u < s.units; u++ {
		if s.dead != nil && s.dead[u] {
			continue
		}
		if load := s.hybridB * (s.loadBuf[u]/mean - 1); load < bestLoad {
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
