package apps

import (
	"abndp/internal/graph"
	"abndp/internal/mem"
	"abndp/internal/ndp"
	"abndp/internal/task"
)

// SpMV computes y = A*x for a power-law sparse matrix: one task per matrix
// row (§2.2), reading the row's nonzeros (local to the row's home) and the
// x-vector entries at the nonzero columns (scattered across units). A is
// the adjacency structure of a weighted R-MAT graph, giving the skewed
// row-length and column-popularity distributions of real sparse matrices.
type SpMV struct {
	p Params
	m *graph.CSR // rows = vertices, cols = neighbors, values = weights

	input *graph.CSR // preloaded matrix (Params.GraphPath), nil = R-MAT

	rdata *mem.Array // per-row {y, rowMeta}, 16 B
	xvec  *mem.Array // x entries, 8 B each
	adj   *adjacency // row nonzeros (col, val), 8 B per nnz

	x []float64
	y []float64
}

// NewSpMV builds the workload. Defaults: 2^12 rows, 8 nnz/row average.
func NewSpMV(p Params) *SpMV {
	return &SpMV{p: p.withDefaults(12, 8, 1)}
}

func (a *SpMV) Name() string { return "spmv" }

// Y exposes the result vector for tests.
func (a *SpMV) Y() []float64 { return a.y }

// X exposes the input vector for tests.
func (a *SpMV) X() []float64 { return a.x }

// Matrix exposes the sparse matrix for tests.
func (a *SpMV) Matrix() *graph.CSR { return a.m }

func (a *SpMV) setInput(g *graph.CSR) { a.input = g }

func (a *SpMV) Setup(sys *ndp.System) {
	a.m = a.input
	if a.m == nil {
		a.m = inputRMATWeighted(a.p.Scale, a.p.Degree, a.p.Seed, 4)
	}
	graph.EnsureWeights(a.m, a.p.Seed+1, 4)
	n := a.m.N
	a.rdata = sys.Space.NewArray("spmv.rows", n, 16, mem.Interleave)
	a.xvec = sys.Space.NewArray("spmv.x", n, 8, mem.Interleave)
	a.adj = allocAdjacency(sys.Space, a.rdata, a.m, 8)
	a.x = make([]float64, n)
	a.y = make([]float64, n)
	for i := range a.x {
		// Deterministic, non-trivial input vector.
		a.x[i] = 1 + float64(i%17)/16
	}
}

// hint builds row r's hint into buf.
func (a *SpMV) hint(buf []mem.Line, r int) task.Hint {
	h := task.Hint{Lines: gatherLines(buf, a.rdata, r, a.adj, a.xvec, a.m.Neighbors(r))}
	if a.p.PerfectHints {
		h.Workload = float64(8 + 4*a.m.Degree(r))
	}
	return h
}

func (a *SpMV) InitialTasks(emit func(*task.Task)) {
	for r := 0; r < a.m.N; r++ {
		emit(&task.Task{Elem: r, Hint: a.hint(nil, r)})
	}
}

func (a *SpMV) Execute(t *task.Task, ctx *ndp.ExecCtx) int64 {
	r := t.Elem
	cols := a.m.Neighbors(r)
	vals := a.m.Weights(r)
	var sum float64
	for i, c := range cols {
		sum += float64(vals[i]) * a.x[c]
	}
	a.y[r] = sum
	// Fused multiply-add plus index load per nonzero.
	return 8 + 4*int64(len(cols))
}

func (a *SpMV) EndTimestamp(int64) {}
