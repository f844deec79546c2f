// Package apps ports the paper's eight data-intensive workloads (§6) to
// the task-based execution model: pr, bfs, sssp, astar, gcn, kmeans, knn,
// and spmv. Graph workloads and spmv run on R-MAT power-law inputs (the
// stand-in for the paper's SNAP/UFlorida datasets); kmeans and knn use
// synthetic point sets, as in the paper.
//
// Every app follows the same discipline:
//
//   - Setup lays out the primary data (vertex/point/matrix/vector arrays
//     and per-element adjacency) element-interleaved across NDP units.
//   - Task hints carry the cachelines of ALL primary data the task reads,
//     main element first; the workload field is left unset so the
//     scheduler estimates load from the hint, exactly as evaluated in the
//     paper ("we manually add the data access hint ... but leave the
//     workload hint unspecified").
//   - Execute is order-independent within a timestamp (bulk-synchronous
//     semantics): values read belong to the previous timestamp; updates
//     are applied in EndTimestamp.
package apps

import (
	"fmt"

	"abndp/internal/graph"
	"abndp/internal/mem"
	"abndp/internal/ndp"
)

// Params sizes a workload. Zero values take the per-app defaults.
type Params struct {
	Scale  int   // log2 of the element count (vertices, points, rows)
	Degree int   // average degree / nnz per row
	Iters  int   // iterations (pr, gcn layers, kmeans rounds)
	Seed   int64 // input generator seed
	// PerfectHints makes every app set hint.workload to its task's exact
	// instruction count (§3.1 allows programmers to supply it). Default
	// off: the scheduler estimates load from the hint addresses, as
	// evaluated in the paper.
	PerfectHints bool
	// GraphPath loads the input from a file (SNAP edge list or Matrix
	// Market .mtx) instead of generating an R-MAT graph. Supported by the
	// graph workloads (pr, bfs, sssp, gcn, spmv).
	GraphPath string
}

func (p Params) withDefaults(scale, degree, iters int) Params {
	if p.Scale == 0 {
		p.Scale = scale
	}
	if p.Degree == 0 {
		p.Degree = degree
	}
	if p.Iters == 0 {
		p.Iters = iters
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	return p
}

// Names lists the workloads in the paper's Figure 6 order.
var Names = []string{"pr", "bfs", "sssp", "astar", "gcn", "kmeans", "knn", "spmv"}

// ExtraNames lists workloads implemented beyond the paper's eight.
var ExtraNames = []string{"cc"}

// graphInput is implemented by workloads that accept a loaded input graph.
type graphInput interface {
	setInput(*graph.CSR)
}

// New builds a workload by name with the given parameters.
func New(name string, p Params) (ndp.App, error) {
	a, err := build(name, p)
	if err != nil {
		return nil, err
	}
	if p.GraphPath != "" {
		gi, ok := a.(graphInput)
		if !ok {
			return nil, fmt.Errorf("apps: %s does not take a graph input file", name)
		}
		g, err := graph.LoadFile(p.GraphPath)
		if err != nil {
			return nil, err
		}
		gi.setInput(g)
	}
	return a, nil
}

func build(name string, p Params) (ndp.App, error) {
	switch name {
	case "pr":
		return NewPageRank(p), nil
	case "bfs":
		return NewBFS(p), nil
	case "sssp":
		return NewSSSP(p), nil
	case "astar":
		a := NewAStar(p)
		if err := a.check(); err != nil {
			return nil, err
		}
		return a, nil
	case "gcn":
		return NewGCN(p), nil
	case "kmeans":
		return NewKMeans(p), nil
	case "knn":
		return NewKNN(p), nil
	case "spmv":
		return NewSpMV(p), nil
	case "cc":
		return NewCC(p), nil
	}
	return nil, fmt.Errorf("apps: unknown workload %q", name)
}

// MustNew is New for statically known names.
func MustNew(name string, p Params) ndp.App {
	a, err := New(name, p)
	if err != nil {
		panic(err)
	}
	return a
}

// adjacency is per-element variable-length edge/row storage placed on each
// element's home unit, so a task's own topology reads are local while its
// neighbor-value reads may be remote.
type adjacency struct {
	first []mem.Line
	n     []int32
}

// allocAdjacency reserves ceil(bytesPerEdge*degree/64) lines for every
// vertex of g on the home unit of its entry in vdata.
func allocAdjacency(space *mem.Space, vdata *mem.Array, g *graph.CSR, bytesPerEdge int) *adjacency {
	a := &adjacency{
		first: make([]mem.Line, g.N),
		n:     make([]int32, g.N),
	}
	for v := 0; v < g.N; v++ {
		bytes := bytesPerEdge * g.Degree(v)
		nl := (bytes + mem.LineSize - 1) / mem.LineSize
		a.n[v] = int32(nl)
		if nl > 0 {
			a.first[v] = space.AllocLinesOn(vdata.HomeOf(v), nl)
		}
	}
	return a
}

// appendLines appends element v's adjacency lines to dst.
func (a *adjacency) appendLines(dst []mem.Line, v int) []mem.Line {
	for i := int32(0); i < a.n[v]; i++ {
		dst = append(dst, a.first[v]+mem.Line(i))
	}
	return dst
}

// emptyLines returns buf emptied when it has room for n lines, else a new
// empty list with that capacity. Every hint builder counts its lines
// before it appends and takes its list from here, so it allocates once at
// most and no append reallocates; a recycled task's list with room costs
// nothing. The count is an upper bound, since AppendLines drops an
// adjacent duplicate. This allocates as slices.Grow(buf[:0], n) does, but
// also under the race detector, which keeps the temporary that
// slices.Grow's append of a make otherwise elides.
func emptyLines(buf []mem.Line, n int) []mem.Line {
	if cap(buf) >= n {
		return buf[:0]
	}
	return make([]mem.Line, 0, n)
}

// gatherLines builds the lines of a task that reads element v of own, v's
// adjacency lines and the elements idx of arr, in that order.
func gatherLines(buf []mem.Line, own *mem.Array, v int, adj *adjacency, arr *mem.Array, idx []int32) []mem.Line {
	lines := emptyLines(buf, 1+int(adj.n[v])+spanLines(arr, idx))
	lines = append(lines, own.LineOf(v))
	lines = adj.appendLines(lines, v)
	for _, u := range idx {
		lines = arr.AppendLines(lines, int(u))
	}
	return lines
}

// spanLines returns the number of lines arr's elements idx span: the most
// AppendLines adds for them.
func spanLines(arr *mem.Array, idx []int32) int {
	n := 0
	for _, i := range idx {
		n += arr.SpanLines(int(i))
	}
	return n
}
