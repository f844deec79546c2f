package apps

import (
	"fmt"

	"abndp/internal/graph"
	"abndp/internal/mem"
	"abndp/internal/ndp"
	"abndp/internal/task"
)

// CC is connected components by min-label propagation — the classic extra
// NDP graph workload (Tesseract and its successors evaluate it). Each
// round, the task for a vertex takes the minimum label among itself and
// its neighbors; vertices whose label improved re-enqueue themselves and
// their neighbors for the next round. Labels stabilize at the component
// minimum. Edges are treated as undirected (the symmetric closure of the
// input).
//
// CC is an extension beyond the paper's eight workloads (ExtraNames).
type CC struct {
	p     Params
	g     *graph.CSR // symmetric closure
	input *graph.CSR

	vdata *mem.Array
	adj   *adjacency

	label     []int32
	nextLabel []int32
	enqueued  []bool
	dirty     []int32
}

// NewCC builds the workload. Defaults: 2^13 vertices, degree 8.
func NewCC(p Params) *CC {
	return &CC{p: p.withDefaults(13, 8, 1)}
}

func (a *CC) Name() string { return "cc" }

// Labels exposes the component labels for tests.
func (a *CC) Labels() []int32 { return a.label }

// Graph exposes the (symmetrized) input for tests.
func (a *CC) Graph() *graph.CSR { return a.g }

func (a *CC) setInput(g *graph.CSR) { a.input = g }

// symmetrize returns g plus its transpose (no weights).
func symmetrize(g *graph.CSR) *graph.CSR {
	m := len(g.Col)
	src := make([]int32, 0, 2*m)
	dst := make([]int32, 0, 2*m)
	for v := 0; v < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			src = append(src, int32(v), u)
			dst = append(dst, u, int32(v))
		}
	}
	return graph.FromEdges(g.N, src, dst, nil)
}

func (a *CC) Setup(sys *ndp.System) {
	base := a.input
	if base == nil {
		base = inputRMAT(a.p.Scale, a.p.Degree, a.p.Seed)
		a.g = inputDerived(fmt.Sprintf("sym|rmat|%d|%d|%d", a.p.Scale, a.p.Degree, a.p.Seed),
			func() *graph.CSR { return symmetrize(base) })
	} else {
		a.g = symmetrize(base)
	}
	n := a.g.N
	a.vdata = sys.Space.NewArray("cc.vdata", n, 16, mem.Interleave)
	a.adj = allocAdjacency(sys.Space, a.vdata, a.g, 4)
	a.label = make([]int32, n)
	a.nextLabel = make([]int32, n)
	a.enqueued = make([]bool, n)
	for v := range a.label {
		a.label[v] = int32(v)
		a.nextLabel[v] = int32(v)
	}
}

// hint builds v's hint into buf (typically a recycled task's line slice).
func (a *CC) hint(buf []mem.Line, v int) task.Hint {
	h := task.Hint{Lines: gatherLines(buf, a.vdata, v, a.adj, a.vdata, a.g.Neighbors(v))}
	if a.p.PerfectHints {
		h.Workload = float64(8 + 3*a.g.Degree(v))
	}
	return h
}

func (a *CC) InitialTasks(emit func(*task.Task)) {
	for v := 0; v < a.g.N; v++ {
		emit(&task.Task{Elem: v, Hint: a.hint(nil, v)})
	}
}

func (a *CC) Execute(t *task.Task, ctx *ndp.ExecCtx) int64 {
	v := t.Elem
	min := a.label[v]
	for _, u := range a.g.Neighbors(v) {
		if a.label[u] < min {
			min = a.label[u]
		}
	}
	if min < a.nextLabel[v] {
		a.nextLabel[v] = min
		// The improved vertex and its neighbors re-run next round; the
		// enqueued flag keeps the child set order-independent.
		if !a.enqueued[v] {
			a.enqueued[v] = true
			a.dirty = append(a.dirty, int32(v))
			c := ctx.Spawn()
			c.Elem = v
			c.Hint = a.hint(c.Hint.Lines, v)
			ctx.Enqueue(c)
		}
		for _, u := range a.g.Neighbors(v) {
			if !a.enqueued[u] {
				a.enqueued[u] = true
				a.dirty = append(a.dirty, u)
				c := ctx.Spawn()
				c.Elem = int(u)
				c.Hint = a.hint(c.Hint.Lines, int(u))
				ctx.Enqueue(c)
			}
		}
	}
	return 8 + 3*int64(a.g.Degree(v))
}

func (a *CC) EndTimestamp(int64) {
	for _, v := range a.dirty {
		if a.nextLabel[v] < a.label[v] {
			a.label[v] = a.nextLabel[v]
		}
		a.enqueued[v] = false
	}
	a.dirty = a.dirty[:0]
}
