package apps

import (
	"abndp/internal/graph"
	"abndp/internal/mem"
	"abndp/internal/ndp"
	"abndp/internal/task"
)

// BFS is frontier-based breadth-first search: each timestamp expands one
// level. A task for frontier vertex v claims its unvisited neighbors; the
// first claimer enqueues the neighbor's task for the next level, so the
// child set is order-independent.
type BFS struct {
	p Params
	g *graph.CSR

	input *graph.CSR // preloaded input (Params.GraphPath), nil = R-MAT

	vdata *mem.Array // per-vertex {level}, 16 B
	adj   *adjacency

	level   []int32
	claimed []int32 // timestamp+1 at which the vertex was claimed, -1 if not
	src     int
}

// NewBFS builds the workload. Defaults: 2^13 vertices, degree 8.
func NewBFS(p Params) *BFS {
	return &BFS{p: p.withDefaults(13, 8, 1)}
}

func (a *BFS) Name() string { return "bfs" }

// Levels exposes the BFS levels for tests and examples.
func (a *BFS) Levels() []int32 { return a.level }

// Graph exposes the input for tests.
func (a *BFS) Graph() *graph.CSR { return a.g }

func (a *BFS) setInput(g *graph.CSR) { a.input = g }

func (a *BFS) Setup(sys *ndp.System) {
	a.g = a.input
	if a.g == nil {
		a.g = inputRMAT(a.p.Scale, a.p.Degree, a.p.Seed)
	}
	n := a.g.N
	a.vdata = sys.Space.NewArray("bfs.vdata", n, 16, mem.Interleave)
	a.adj = allocAdjacency(sys.Space, a.vdata, a.g, 4)
	a.level = make([]int32, n)
	a.claimed = make([]int32, n)
	for i := range a.level {
		a.level[i] = -1
		a.claimed[i] = -1
	}
	// Root at the highest-degree vertex so the traversal reaches the bulk
	// of the R-MAT giant component.
	a.src = 0
	for v := 0; v < n; v++ {
		if a.g.Degree(v) > a.g.Degree(a.src) {
			a.src = v
		}
	}
	a.level[a.src] = 0
	a.claimed[a.src] = 0
}

// hint builds v's hint into buf (typically a recycled task's line slice).
func (a *BFS) hint(buf []mem.Line, v int) task.Hint {
	h := task.Hint{Lines: gatherLines(buf, a.vdata, v, a.adj, a.vdata, a.g.Neighbors(v))}
	if a.p.PerfectHints {
		h.Workload = float64(8 + 4*a.g.Degree(v))
	}
	return h
}

func (a *BFS) InitialTasks(emit func(*task.Task)) {
	emit(&task.Task{Elem: a.src, Hint: a.hint(nil, a.src)})
}

func (a *BFS) Execute(t *task.Task, ctx *ndp.ExecCtx) int64 {
	v := t.Elem
	for _, u := range a.g.Neighbors(v) {
		if a.claimed[u] < 0 {
			a.claimed[u] = int32(t.TS + 1)
			c := ctx.Spawn()
			c.Elem = int(u)
			c.Hint = a.hint(c.Hint.Lines, int(u))
			ctx.Enqueue(c)
		}
	}
	// ~8 setup instructions plus ~4 per scanned edge.
	return 8 + 4*int64(a.g.Degree(v))
}

func (a *BFS) EndTimestamp(ts int64) {
	// Bulk-apply the levels claimed during this timestamp.
	for v, c := range a.claimed {
		if c == int32(ts+1) && a.level[v] < 0 {
			a.level[v] = c
		}
	}
}
