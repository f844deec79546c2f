// Package task defines the task-based programming and execution model of
// §3.1: tasks with a timestamp, a hint carrying the primary-data addresses
// and an optional workload estimate, and the per-unit task queue with its
// prefetch and scheduling windows (Figure 4).
package task

import (
	"abndp/internal/mem"
	"abndp/internal/topology"
)

// Hint encapsulates the scheduler-visible information of a task (§3.1):
// the cachelines of all primary data it will access, and an optional
// workload estimate.
type Hint struct {
	// Lines lists the primary-data cachelines the task accesses. By
	// convention Lines[0] belongs to the task's main element (the one the
	// baseline design B co-locates with).
	Lines []mem.Line
	// Workload optionally states the task's computation load. Zero means
	// unspecified; the scheduler then estimates it from the memory access
	// cost of the hint addresses.
	Workload float64
}

// EstimatedWorkload returns the hint's workload, falling back to the
// paper's default estimate — the total memory access cost of the hint
// addresses, which we take as proportional to the line count.
func (h *Hint) EstimatedWorkload() float64 {
	if h.Workload > 0 {
		return h.Workload
	}
	return float64(len(h.Lines))
}

// Task is one unit of work in the bulk-synchronous execution model. The
// application interprets Kind/Elem/Arg; the runtime uses TS, Hint, and the
// placement fields.
type Task struct {
	Kind int   // application-defined opcode
	Elem int   // main element index
	Arg  int64 // extra application argument
	TS   int64 // timestamp; tasks with equal TS run in parallel

	Hint Hint

	// Origin is the unit whose scheduler created/placed the task.
	Origin topology.UnitID
	// Target is the unit chosen to execute the task.
	Target topology.UnitID

	// PrefetchReady is the cycle at which all of the task's hinted lines
	// have arrived in the prefetch buffer; valid once Prefetched is set.
	PrefetchReady int64
	Prefetched    bool
	// Stolen marks tasks moved by work stealing.
	Stolen bool

	// Retries counts how often the task has been re-executed after a unit
	// failure; bounded by the fault plan's task-retry budget.
	Retries int
	// Replay carries the recorded effects of an execution that was lost to
	// a unit failure. Application Execute calls are not idempotent (they
	// enqueue children), so a re-executed task replays the recorded instrs
	// and children instead of calling Execute again.
	Replay *Replay
}

// Replay is the recorded outcome of one (lost) task execution.
type Replay struct {
	Instrs   int64
	Children []*Task
}

// Pool recycles Task objects and their hint-line slices. The NDP runtime
// retires tasks at the bulk-synchronous barrier — the one point where a
// task's lifetime is provably over — and hands them back out for the child
// tasks of later timestamps, so steady-state execution allocates neither
// tasks nor hint slices. A Pool is single-goroutine, like the simulator
// that owns it; the zero value is ready to use.
type Pool struct {
	free []*Task
}

// Get returns a zeroed task. Recycled tasks keep the capacity of their
// previous hint-line slice, so refilling the hint usually allocates nothing.
func (p *Pool) Get() *Task {
	n := len(p.free)
	if n == 0 {
		return &Task{}
	}
	t := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	lines := t.Hint.Lines[:0]
	*t = Task{Hint: Hint{Lines: lines}}
	return t
}

// Put recycles t. The caller must not retain t or its hint lines.
func (p *Pool) Put(t *Task) { p.free = append(p.free, t) }

// Queue is one NDP unit's task queue: a FIFO supporting front pops by the
// cores, window indexing by the prefetch unit, and tail steals by remote
// units (work stealing takes the tasks furthest from execution).
type Queue struct {
	items []*Task
	head  int
}

// Len returns the number of queued tasks.
func (q *Queue) Len() int { return len(q.items) - q.head }

// Push appends t to the queue tail.
func (q *Queue) Push(t *Task) { q.items = append(q.items, t) }

// Pop removes and returns the task at the queue head, or nil when empty.
func (q *Queue) Pop() *Task {
	if q.Len() == 0 {
		return nil
	}
	t := q.items[q.head]
	q.items[q.head] = nil // allow GC
	q.head++
	// Compact once the dead prefix dominates, keeping Push/Pop amortized O(1).
	if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return t
}

// At returns the i-th task from the head without removing it. It panics on
// out-of-range indices; callers check Len first.
func (q *Queue) At(i int) *Task { return q.items[q.head+i] }

// StealBack removes up to n tasks from the queue tail and appends them to
// dst in queue order, returning the extended slice. Stolen tasks are those
// that would execute last locally, so moving them disturbs the prefetch
// window least. A caller that passes the same buffer back each time steals
// without allocating.
func (q *Queue) StealBack(dst []*Task, n int) []*Task {
	if n <= 0 || q.Len() == 0 {
		return dst
	}
	if n > q.Len() {
		n = q.Len()
	}
	cut := len(q.items) - n
	dst = append(dst, q.items[cut:]...)
	clear(q.items[cut:])
	q.items = q.items[:cut]
	return dst
}
