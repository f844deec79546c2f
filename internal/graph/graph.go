// Package graph provides the graph substrate for the workloads: CSR
// storage, deterministic generators (R-MAT power-law graphs standing in for
// the paper's SNAP datasets, uniform random graphs, and weighted 2-D grids
// for A*), and reference algorithms used by tests and by the task-based
// implementations.
package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
)

// CSR is a directed graph in compressed sparse row form. Weights are
// optional (nil for unweighted graphs).
type CSR struct {
	N      int
	RowPtr []int32 // len N+1
	Col    []int32 // len RowPtr[N]
	W      []float32
}

// Degree returns the out-degree of vertex v.
func (g *CSR) Degree(v int) int { return int(g.RowPtr[v+1] - g.RowPtr[v]) }

// Edges returns the number of directed edges.
func (g *CSR) Edges() int { return len(g.Col) }

// Neighbors returns the out-neighbors of v. The slice aliases the CSR.
func (g *CSR) Neighbors(v int) []int32 { return g.Col[g.RowPtr[v]:g.RowPtr[v+1]] }

// Weights returns the edge weights of v's out-edges (nil if unweighted).
func (g *CSR) Weights(v int) []float32 {
	if g.W == nil {
		return nil
	}
	return g.W[g.RowPtr[v]:g.RowPtr[v+1]]
}

// Validate checks structural invariants.
func (g *CSR) Validate() error {
	if len(g.RowPtr) != g.N+1 {
		return fmt.Errorf("graph: RowPtr len %d, want %d", len(g.RowPtr), g.N+1)
	}
	if g.RowPtr[0] != 0 {
		return fmt.Errorf("graph: RowPtr[0] = %d", g.RowPtr[0])
	}
	for i := 0; i < g.N; i++ {
		if g.RowPtr[i+1] < g.RowPtr[i] {
			return fmt.Errorf("graph: RowPtr not monotone at %d", i)
		}
	}
	if int(g.RowPtr[g.N]) != len(g.Col) {
		return fmt.Errorf("graph: RowPtr[N]=%d, edges=%d", g.RowPtr[g.N], len(g.Col))
	}
	for i, c := range g.Col {
		if c < 0 || int(c) >= g.N {
			return fmt.Errorf("graph: edge %d targets %d outside [0,%d)", i, c, g.N)
		}
	}
	if g.W != nil && len(g.W) != len(g.Col) {
		return fmt.Errorf("graph: %d weights for %d edges", len(g.W), len(g.Col))
	}
	return nil
}

// FromEdges builds a CSR from an edge list, sorting each adjacency list.
// weights may be nil.
func FromEdges(n int, src, dst []int32, weights []float32) *CSR {
	if len(src) != len(dst) {
		panic("graph: src/dst length mismatch")
	}
	g := &CSR{N: n, RowPtr: make([]int32, n+1)}
	for _, s := range src {
		g.RowPtr[s+1]++
	}
	for i := 0; i < n; i++ {
		g.RowPtr[i+1] += g.RowPtr[i]
	}
	g.Col = make([]int32, len(dst))
	if weights != nil {
		g.W = make([]float32, len(dst))
	}
	cursor := make([]int32, n)
	for i, s := range src {
		p := g.RowPtr[s] + cursor[s]
		g.Col[p] = dst[i]
		if weights != nil {
			g.W[p] = weights[i]
		}
		cursor[s]++
	}
	// Sort adjacency lists (stable layout, deterministic traversal), and
	// keep weights aligned. Equal columns of an unweighted row cannot be
	// told apart, so any sort gives its order. A weighted row's duplicate
	// columns carry distinct weights, so their order must match the
	// per-row reference's sort.Slice: sort.Sort runs the same pdqsort,
	// here over one reused index scratch, permuting through one
	// column/weight scratch.
	var by byColumn
	var nc []int32
	var nw []float32
	for v := 0; v < n; v++ {
		lo, hi := g.RowPtr[v], g.RowPtr[v+1]
		cols := g.Col[lo:hi]
		if g.W == nil {
			slices.Sort(cols)
			continue
		}
		ws := g.W[lo:hi]
		by.cols, by.idx = cols, by.idx[:0]
		for i := range cols {
			by.idx = append(by.idx, i)
		}
		sort.Sort(&by)
		nc, nw = nc[:0], nw[:0]
		for _, k := range by.idx {
			nc = append(nc, cols[k])
			nw = append(nw, ws[k])
		}
		copy(cols, nc)
		copy(ws, nw)
	}
	return g
}

// byColumn orders the indices of a row's edges by their column.
type byColumn struct {
	idx  []int
	cols []int32
}

func (b *byColumn) Len() int           { return len(b.idx) }
func (b *byColumn) Less(i, j int) bool { return b.cols[b.idx[i]] < b.cols[b.idx[j]] }
func (b *byColumn) Swap(i, j int)      { b.idx[i], b.idx[j] = b.idx[j], b.idx[i] }

// RMAT generates a power-law directed graph with n = 2^scale vertices and
// n*avgDeg edges using the recursive-matrix model (a=0.57, b=c=0.19),
// the standard stand-in for skewed real-world graphs. Self-loops are kept
// (they behave as ordinary edges); duplicates are allowed, as in the
// Graph500 generator. Vertex labels are permuted, also as in Graph500:
// raw R-MAT concentrates hubs on power-of-two IDs, which would otherwise
// alias pathologically with any modulo-based data interleaving.
func RMAT(scale, avgDeg int, seed int64) *CSR {
	src, dst := rmatEdges(scale, avgDeg, seed)
	return FromEdges(1<<scale, src, dst, nil)
}

// rmatEdges draws RMAT's edge list.
func rmatEdges(scale, avgDeg int, seed int64) (src, dst []int32) {
	n := 1 << scale
	m := n * avgDeg
	rng := rand.New(rand.NewSource(seed))
	const a, b, c = 0.57, 0.19, 0.19
	perm := rng.Perm(n)
	src, dst = make([]int32, m), make([]int32, m)
	for e := 0; e < m; e++ {
		var u, v int32
		for level := 0; level < scale; level++ {
			r := rng.Float64()
			switch {
			case r < a: // top-left
			case r < a+b: // top-right
				v |= 1 << level
			case r < a+b+c: // bottom-left
				u |= 1 << level
			default: // bottom-right
				u |= 1 << level
				v |= 1 << level
			}
		}
		src[e], dst[e] = int32(perm[u]), int32(perm[v])
	}
	return src, dst
}

// RMATWeighted is RMAT with uniform edge weights in [1, maxW).
func RMATWeighted(scale, avgDeg int, seed int64, maxW float32) *CSR {
	g := RMAT(scale, avgDeg, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	g.W = make([]float32, len(g.Col))
	for i := range g.W {
		g.W[i] = 1 + rng.Float32()*(maxW-1)
	}
	return g
}

// Uniform generates an Erdős–Rényi-style graph with exactly deg out-edges
// per vertex, uniformly random targets.
func Uniform(n, deg int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	src := make([]int32, 0, n*deg)
	dst := make([]int32, 0, n*deg)
	for v := 0; v < n; v++ {
		for k := 0; k < deg; k++ {
			src = append(src, int32(v))
			dst = append(dst, int32(rng.Intn(n)))
		}
	}
	return FromEdges(n, src, dst, nil)
}

// Grid generates a w x h 4-connected grid with random positive edge
// weights in [1, maxW) — the A* search substrate. Vertex (x, y) is y*w+x.
func Grid(w, h int, seed int64, maxW float32) *CSR {
	src, dst, ws := gridEdges(w, h, seed, maxW)
	return FromEdges(w*h, src, dst, ws)
}

// gridEdges draws Grid's weighted edge list: both directions of each of
// the (w-1)*h horizontal and (h-1)*w vertical links.
func gridEdges(w, h int, seed int64, maxW float32) (src, dst []int32, ws []float32) {
	m := max(0, 2*(2*w*h-w-h))
	src, dst, ws = make([]int32, 0, m), make([]int32, 0, m), make([]float32, 0, m)
	rng := rand.New(rand.NewSource(seed))
	edge := func(a, b int) {
		src = append(src, int32(a))
		dst = append(dst, int32(b))
		ws = append(ws, 1+rng.Float32()*(maxW-1))
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := y*w + x
			if x+1 < w {
				edge(v, v+1)
				edge(v+1, v)
			}
			if y+1 < h {
				edge(v, v+w)
				edge(v+w, v)
			}
		}
	}
	return src, dst, ws
}

// EnsureWeights fills in uniform random edge weights in [1, maxW) when the
// graph has none — used when a weighted workload runs on an unweighted
// input file.
func EnsureWeights(g *CSR, seed int64, maxW float32) {
	if g.W != nil {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	g.W = make([]float32, len(g.Col))
	for i := range g.W {
		g.W[i] = 1 + rng.Float32()*(maxW-1)
	}
}

// MaxDegree returns the largest out-degree — a skew indicator.
func (g *CSR) MaxDegree() int {
	m := 0
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > m {
			m = d
		}
	}
	return m
}
