package apps

import (
	"abndp/internal/graph"
	"abndp/internal/mem"
	"abndp/internal/ndp"
	"abndp/internal/task"
)

// SSSP is frontier-based Bellman-Ford single-source shortest paths: each
// timestamp relaxes every out-edge of the current frontier. Improvements
// accumulate as commutative min-updates in a next-distance buffer, so
// execution order within a timestamp does not matter; the first improver of
// a vertex enqueues its task for the next round.
type SSSP struct {
	p Params
	g *graph.CSR

	input *graph.CSR // preloaded input (Params.GraphPath), nil = R-MAT

	vdata *mem.Array // per-vertex {dist}, 16 B
	adj   *adjacency // out-edge (target, weight) pairs, 8 B per edge

	dist     []float32
	nextDist []float32
	enqueued []bool // already enqueued for the next round
	dirty    []int32
	src      int
}

// NewSSSP builds the workload. Defaults: 2^12 vertices, degree 8.
func NewSSSP(p Params) *SSSP {
	return &SSSP{p: p.withDefaults(12, 8, 1)}
}

func (a *SSSP) Name() string { return "sssp" }

// Dist exposes the computed distances for tests and examples.
func (a *SSSP) Dist() []float32 { return a.dist }

// Graph exposes the input for tests.
func (a *SSSP) Graph() *graph.CSR { return a.g }

func (a *SSSP) setInput(g *graph.CSR) { a.input = g }

func (a *SSSP) Setup(sys *ndp.System) {
	a.g = a.input
	if a.g == nil {
		a.g = inputRMATWeighted(a.p.Scale, a.p.Degree, a.p.Seed, 8)
	}
	graph.EnsureWeights(a.g, a.p.Seed+1, 8)
	n := a.g.N
	a.vdata = sys.Space.NewArray("sssp.vdata", n, 16, mem.Interleave)
	a.adj = allocAdjacency(sys.Space, a.vdata, a.g, 8)
	a.dist = make([]float32, n)
	a.nextDist = make([]float32, n)
	a.enqueued = make([]bool, n)
	for i := range a.dist {
		a.dist[i] = graph.Inf()
		a.nextDist[i] = graph.Inf()
	}
	a.src = 0
	for v := 0; v < n; v++ {
		if a.g.Degree(v) > a.g.Degree(a.src) {
			a.src = v
		}
	}
	a.dist[a.src] = 0
}

// hint builds v's hint into buf (typically a recycled task's line slice).
func (a *SSSP) hint(buf []mem.Line, v int) task.Hint {
	h := task.Hint{Lines: gatherLines(buf, a.vdata, v, a.adj, a.vdata, a.g.Neighbors(v))}
	if a.p.PerfectHints {
		h.Workload = float64(10 + 5*a.g.Degree(v))
	}
	return h
}

func (a *SSSP) InitialTasks(emit func(*task.Task)) {
	emit(&task.Task{Elem: a.src, Hint: a.hint(nil, a.src)})
}

func (a *SSSP) Execute(t *task.Task, ctx *ndp.ExecCtx) int64 {
	v := t.Elem
	nbs := a.g.Neighbors(v)
	ws := a.g.Weights(v)
	for i, u := range nbs {
		nd := a.dist[v] + ws[i]
		if nd < a.dist[u] && nd < a.nextDist[u] {
			if a.nextDist[u] == graph.Inf() {
				a.dirty = append(a.dirty, u)
			}
			a.nextDist[u] = nd
			if !a.enqueued[u] {
				a.enqueued[u] = true
				c := ctx.Spawn()
				c.Elem = int(u)
				c.Hint = a.hint(c.Hint.Lines, int(u))
				ctx.Enqueue(c)
			}
		}
	}
	return 10 + 5*int64(len(nbs))
}

func (a *SSSP) EndTimestamp(int64) {
	for _, u := range a.dirty {
		if a.nextDist[u] < a.dist[u] {
			a.dist[u] = a.nextDist[u]
		}
		a.nextDist[u] = graph.Inf()
		a.enqueued[u] = false
	}
	a.dirty = a.dirty[:0]
}
