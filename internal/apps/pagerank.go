package apps

import (
	"fmt"

	"abndp/internal/graph"
	"abndp/internal/mem"
	"abndp/internal/ndp"
	"abndp/internal/task"
)

// PageRank is the pull-based synchronous PageRank of Algorithm 1: the task
// for vertex v reads the current rank and out-degree of every in-neighbor,
// computes v's next rank, and re-enqueues itself for the next iteration.
type PageRank struct {
	p     Params
	g     *graph.CSR // forward graph (for out-degrees)
	rev   *graph.CSR // reverse graph (contributions pulled along in-edges)
	alpha float64

	input *graph.CSR // preloaded input (Params.GraphPath), nil = R-MAT

	vdata *mem.Array // per-vertex {currPr, outDegree}, 16 B
	adj   *adjacency // in-neighbor lists at each vertex's home

	cur, next []float64
	dangling  float64
}

// NewPageRank builds the workload. Defaults: 2^12 vertices, degree 8,
// 3 iterations.
func NewPageRank(p Params) *PageRank {
	return &PageRank{p: p.withDefaults(12, 8, 3), alpha: 0.85}
}

func (a *PageRank) Name() string { return "pr" }

// Graph exposes the input for tests.
func (a *PageRank) Graph() *graph.CSR { return a.g }

// Ranks exposes the current ranks for tests and examples.
func (a *PageRank) Ranks() []float64 { return a.cur }

func (a *PageRank) setInput(g *graph.CSR) { a.input = g }

func (a *PageRank) Setup(sys *ndp.System) {
	a.g = a.input
	if a.g == nil {
		a.g = inputRMAT(a.p.Scale, a.p.Degree, a.p.Seed)
		a.rev = inputDerived(fmt.Sprintf("rev|rmat|%d|%d|%d", a.p.Scale, a.p.Degree, a.p.Seed),
			func() *graph.CSR { return graph.Reverse(a.g) })
	} else {
		a.rev = graph.Reverse(a.g)
	}
	n := a.g.N
	a.vdata = sys.Space.NewArray("pr.vdata", n, 16, mem.Interleave)
	a.adj = allocAdjacency(sys.Space, a.vdata, a.rev, 4)
	a.cur = make([]float64, n)
	a.next = make([]float64, n)
	for i := range a.cur {
		a.cur[i] = 1 / float64(n)
	}
	a.updateDangling()
}

func (a *PageRank) updateDangling() {
	a.dangling = 0
	for v := 0; v < a.g.N; v++ {
		if a.g.Degree(v) == 0 {
			a.dangling += a.cur[v]
		}
	}
}

// hint builds v's hint into buf (typically a recycled task's line slice).
func (a *PageRank) hint(buf []mem.Line, v int) task.Hint {
	h := task.Hint{Lines: gatherLines(buf, a.vdata, v, a.adj, a.vdata, a.rev.Neighbors(v))}
	if a.p.PerfectHints {
		h.Workload = float64(10 + 6*a.rev.Degree(v))
	}
	return h
}

func (a *PageRank) InitialTasks(emit func(*task.Task)) {
	for v := 0; v < a.g.N; v++ {
		emit(&task.Task{Elem: v, Hint: a.hint(nil, v)})
	}
}

func (a *PageRank) Execute(t *task.Task, ctx *ndp.ExecCtx) int64 {
	v := t.Elem
	var sum float64
	for _, u := range a.rev.Neighbors(v) {
		sum += a.cur[u] / float64(a.g.Degree(int(u)))
	}
	n := float64(a.g.N)
	a.next[v] = a.alpha*(sum+a.dangling/n) + (1-a.alpha)/n
	if t.TS+1 < int64(a.p.Iters) {
		c := ctx.Spawn()
		c.Elem = v
		c.Hint = a.hint(c.Hint.Lines, v)
		ctx.Enqueue(c)
	}
	// ~10 setup instructions plus ~6 per pulled neighbor (load, divide,
	// accumulate), matching the per-edge work of Algorithm 1.
	return 10 + 6*int64(a.rev.Degree(v))
}

func (a *PageRank) EndTimestamp(int64) {
	a.cur, a.next = a.next, a.cur
	a.updateDangling()
}
