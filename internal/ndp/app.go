// Package ndp ties every substrate together into the simulated NDP system:
// units with cores, task queues, prefetch units, Traveller caches, DRAM
// channels, the interconnect, the scheduler, and the bulk-synchronous
// runtime loop (paper §3).
package ndp

import (
	"abndp/internal/task"
	"abndp/internal/topology"
)

// App is a workload ported to the task-based execution model of §3.1.
// Implementations live in internal/apps.
//
// The runtime drives an App through one Setup, one InitialTasks, then a
// sequence of bulk-synchronous timestamps: every task of timestamp T
// executes (in arbitrary order — Execute must be order-independent within a
// timestamp), children are enqueued for T+1, and EndTimestamp(T) performs
// the bulk update switch before T+1 begins.
type App interface {
	// Name returns the short workload name (e.g. "pr").
	Name() string
	// Setup allocates the app's primary data in sys.Space and builds its
	// inputs deterministically from sys.Cfg.Seed.
	Setup(sys *System)
	// InitialTasks emits every timestamp-0 task. Emitted tasks must have
	// Kind/Elem/Arg/Hint set; TS and placement are handled by the runtime.
	InitialTasks(emit func(*task.Task))
	// Execute runs the task's semantics, returning the instruction count
	// for the timing model. Child tasks (timestamp TS+1) are emitted via
	// ctx.Enqueue.
	Execute(t *task.Task, ctx *ExecCtx) (instructions int64)
	// EndTimestamp applies the bulk updates accumulated during ts (e.g.
	// swapping double-buffered vertex values).
	EndTimestamp(ts int64)
}

// ExecCtx is the execution context handed to App.Execute.
type ExecCtx struct {
	sys      *System
	unit     topology.UnitID
	children []*task.Task
}

// Unit returns the NDP unit executing the task.
func (c *ExecCtx) Unit() topology.UnitID { return c.unit }

// Now returns the current simulation cycle.
func (c *ExecCtx) Now() int64 { return c.sys.Engine.Now() }

// Enqueue emits a child task for the next timestamp. The runtime schedules
// it at the end of the current timestamp.
func (c *ExecCtx) Enqueue(t *task.Task) {
	c.children = append(c.children, t)
}

// Spawn returns a zeroed task for a child enqueue, recycled from tasks
// retired at earlier bulk-synchronous barriers. Its Hint.Lines is empty but
// keeps its previous capacity, so apps that build the hint with append
// usually allocate nothing. The returned task belongs to the runtime once
// passed to Enqueue; apps must not retain it.
func (c *ExecCtx) Spawn() *task.Task {
	return c.sys.taskPool.Get()
}
