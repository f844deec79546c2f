// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is measured in integer cycles of the NDP core clock (2 GHz by
// default, so one cycle is 0.5 ns). Events scheduled for the same cycle are
// executed in the order they were scheduled, which makes every simulation in
// this repository fully deterministic for a given seed.
package sim

import (
	"sync/atomic"

	"abndp/internal/check"
)

// Engine is a discrete-event simulator clock and event queue.
//
// The zero value is ready to use. Engine is not safe for concurrent use;
// the whole simulator is single-goroutine by design so that results are
// reproducible. (Distinct Engines on distinct goroutines are independent —
// the parallel experiment harness relies on that.) Halt is the one method
// another goroutine may call.
//
// The event queue is an inlined 4-ary min-heap over a value-typed slice
// rather than container/heap: no interface{} boxing on push/pop (zero
// amortized allocations per event) and a shallower tree with better cache
// behavior than a binary heap. Events are ordered by (cycle, sequence
// number), so the pop order — and therefore every simulation result — is
// identical to the previous container/heap implementation.
type Engine struct {
	now      int64
	seq      uint64
	executed int64
	stopped  bool
	halt     atomic.Bool // set by Halt, from any goroutine
	pq       []event

	// Probe, when non-nil, is invoked before each executed event with the
	// event's timestamp and the number of events still pending — the
	// observability subsystem's window into engine occupancy. The disabled
	// path costs one nil check per event and never allocates, preserving
	// the engine's hot-path guarantees (see BenchmarkEnginePushPop and
	// TestEngineSteadyStateAllocs).
	Probe func(at int64, pending int)

	// Audit, when non-nil, verifies the event-ordering invariants on every
	// pop: time never runs backwards, and same-cycle events fire in
	// scheduling order. Same zero-cost-when-off contract as Probe — one nil
	// check per event, no allocation (TestEngineAuditOffAllocs).
	Audit *check.Checker

	// lastSeq is the sequence number of the last popped event, used by the
	// Audit ordering check (only written when Audit is non-nil).
	lastSeq uint64
}

type event struct {
	at  int64
	seq uint64
	fn  func()
}

// before reports whether a orders strictly before b: earlier cycle first,
// scheduling order within a cycle.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Now returns the current simulation time in cycles.
func (e *Engine) Now() int64 { return e.now }

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.pq) }

// Executed returns the number of events executed so far — the engine's
// throughput denominator for events/sec reporting. It is part of the
// simulation's deterministic state (identical runs execute identical event
// counts) but deliberately not part of any result hash.
func (e *Engine) Executed() int64 { return e.executed }

// At schedules fn to run at absolute cycle t. Scheduling in the past (t <
// Now) is clamped to the current time, preserving FIFO order among
// same-cycle events.
func (e *Engine) At(t int64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.pq = append(e.pq, event{at: t, seq: e.seq, fn: fn})
	e.siftUp(len(e.pq) - 1)
}

// After schedules fn to run d cycles from now. Negative delays are clamped
// to zero.
func (e *Engine) After(d int64, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// siftUp restores the heap property after appending at index i.
func (e *Engine) siftUp(i int) {
	pq := e.pq
	ev := pq[i]
	for i > 0 {
		p := (i - 1) >> 2
		if pq[p].before(&ev) {
			break
		}
		pq[i] = pq[p]
		i = p
	}
	pq[i] = ev
}

// popMin removes and returns the earliest event.
func (e *Engine) popMin() event {
	pq := e.pq
	min := pq[0]
	n := len(pq) - 1
	last := pq[n]
	pq[n] = event{} // release fn for GC
	e.pq = pq[:n]
	if n > 0 {
		e.siftDown(last, n)
	}
	return min
}

// siftDown places ev, displaced from the root, back into the n-element heap.
func (e *Engine) siftDown(ev event, n int) {
	pq := e.pq
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		// Select the earliest of up to four children.
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if pq[j].before(&pq[m]) {
				m = j
			}
		}
		if ev.before(&pq[m]) {
			break
		}
		pq[i] = pq[m]
		i = m
	}
	pq[i] = ev
}

// Stop halts the simulation: the current event finishes, every pending
// event is discarded, and Step/Run return immediately afterwards. The
// fault layer uses it when a run is declared unrecoverable — ending the
// simulation at the verdict instead of draining (and guarding) an
// arbitrarily deep queue of now-meaningless events.
func (e *Engine) Stop() {
	e.stopped = true
	for i := range e.pq {
		e.pq[i] = event{} // release fns for GC
	}
	e.pq = e.pq[:0]
}

// Stopped reports whether Stop was called.
func (e *Engine) Stopped() bool { return e.stopped }

// Halt asks Run to return before its next event, leaving the rest of the
// queue unexecuted. Unlike Stop it is safe to call from any goroutine,
// including while Run is executing on another: it is how a caller that
// gave up on a simulation (a wall-clock deadline) frees the goroutine
// running it. A halted engine's state is not a finished simulation.
func (e *Engine) Halt() { e.halt.Store(true) }

// Halted reports whether Halt was called.
func (e *Engine) Halted() bool { return e.halt.Load() }

// Step executes the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (e *Engine) Step() bool {
	if e.stopped || len(e.pq) == 0 {
		return false
	}
	ev := e.popMin()
	if e.Audit != nil {
		e.Audit.Tick()
		if ev.at < e.now {
			e.Audit.Violationf("engine.monotonic", e.now,
				"popped event at cycle %d after the clock reached %d", ev.at, e.now)
		}
		if ev.at == e.now && e.lastSeq != 0 && ev.seq <= e.lastSeq {
			e.Audit.Violationf("engine.fifo", e.now,
				"same-cycle event seq %d popped after seq %d", ev.seq, e.lastSeq)
		}
		e.lastSeq = ev.seq
	}
	e.now = ev.at
	e.executed++
	if e.Probe != nil {
		e.Probe(ev.at, len(e.pq))
	}
	ev.fn()
	return true
}

// Run executes events until the queue is empty, or until Halt is called.
func (e *Engine) Run() {
	for !e.halt.Load() && e.Step() {
	}
}

// RunUntil executes events with timestamps <= t and then advances the clock
// to t. Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t int64) {
	for len(e.pq) > 0 && e.pq[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}
