package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestFromEdges(t *testing.T) {
	g := FromEdges(3, []int32{0, 0, 1, 2}, []int32{2, 1, 2, 0}, nil)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 2 || g.Degree(1) != 1 || g.Degree(2) != 1 {
		t.Fatalf("degrees wrong: %d %d %d", g.Degree(0), g.Degree(1), g.Degree(2))
	}
	nb := g.Neighbors(0)
	if nb[0] != 1 || nb[1] != 2 {
		t.Fatalf("adjacency not sorted: %v", nb)
	}
}

func TestFromEdgesWeightsStayAligned(t *testing.T) {
	// Vertex 0 -> {5 (w=50), 2 (w=20), 9 (w=90)}; sorting must keep pairs.
	g := FromEdges(10, []int32{0, 0, 0}, []int32{5, 2, 9}, []float32{50, 20, 90})
	nbs, ws := g.Neighbors(0), g.Weights(0)
	for i, nb := range nbs {
		if ws[i] != float32(nb*10) {
			t.Fatalf("weight misaligned: edge to %d has weight %v", nb, ws[i])
		}
	}
}

func TestRMATProperties(t *testing.T) {
	g := RMAT(10, 8, 42)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N != 1024 || g.Edges() != 1024*8 {
		t.Fatalf("size = %d/%d", g.N, g.Edges())
	}
	// Power-law skew: the max degree must far exceed the average.
	if g.MaxDegree() < 4*8 {
		t.Fatalf("max degree %d too small for a power-law graph", g.MaxDegree())
	}
}

func TestRMATDeterministic(t *testing.T) {
	a, b := RMAT(8, 4, 7), RMAT(8, 4, 7)
	if a.Edges() != b.Edges() {
		t.Fatal("edge counts differ")
	}
	for i := range a.Col {
		if a.Col[i] != b.Col[i] {
			t.Fatal("RMAT not deterministic for equal seeds")
		}
	}
	c := RMAT(8, 4, 8)
	differs := false
	for i := range a.Col {
		if a.Col[i] != c.Col[i] {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("different seeds gave identical graphs")
	}
}

func TestUniform(t *testing.T) {
	g := Uniform(100, 5, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N; v++ {
		if g.Degree(v) != 5 {
			t.Fatalf("vertex %d degree %d, want 5", v, g.Degree(v))
		}
	}
}

func TestGrid(t *testing.T) {
	g := Grid(4, 3, 1, 10)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N != 12 {
		t.Fatalf("N = %d, want 12", g.N)
	}
	// Corner (0,0) has exactly 2 neighbors; interior (1,1) has 4.
	if g.Degree(0) != 2 {
		t.Fatalf("corner degree = %d, want 2", g.Degree(0))
	}
	if g.Degree(5) != 4 {
		t.Fatalf("interior degree = %d, want 4", g.Degree(5))
	}
	for _, w := range g.W {
		if w < 1 || w >= 10 {
			t.Fatalf("weight %v outside [1,10)", w)
		}
	}
}

func TestBFSLevelsChain(t *testing.T) {
	// 0 -> 1 -> 2 -> 3, plus unreachable 4.
	g := FromEdges(5, []int32{0, 1, 2}, []int32{1, 2, 3}, nil)
	lv := BFSLevels(g, 0)
	want := []int32{0, 1, 2, 3, -1}
	for i := range want {
		if lv[i] != want[i] {
			t.Fatalf("levels = %v, want %v", lv, want)
		}
	}
}

func TestDijkstraSmall(t *testing.T) {
	// 0 -(1)-> 1 -(1)-> 2 and 0 -(5)-> 2: shortest to 2 is 2.
	g := FromEdges(3, []int32{0, 1, 0}, []int32{1, 2, 2}, []float32{1, 1, 5})
	d := Dijkstra(g, 0)
	if d[0] != 0 || d[1] != 1 || d[2] != 2 {
		t.Fatalf("distances = %v", d)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := FromEdges(3, []int32{0}, []int32{1}, []float32{1})
	d := Dijkstra(g, 0)
	if d[2] != Inf() {
		t.Fatalf("unreachable distance = %v, want Inf", d[2])
	}
}

func TestPageRankRefSumsToOne(t *testing.T) {
	g := RMAT(8, 8, 5)
	pr := PageRankRef(g, 0.85, 10)
	var sum float64
	for _, p := range pr {
		sum += p
		if p < 0 {
			t.Fatal("negative rank")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("ranks sum to %v, want 1", sum)
	}
}

func TestPageRankRefRingUniform(t *testing.T) {
	// On a directed ring every vertex has identical rank 1/n.
	n := 16
	src := make([]int32, n)
	dst := make([]int32, n)
	for i := 0; i < n; i++ {
		src[i], dst[i] = int32(i), int32((i+1)%n)
	}
	g := FromEdges(n, src, dst, nil)
	pr := PageRankRef(g, 0.85, 30)
	for i, p := range pr {
		if math.Abs(p-1/float64(n)) > 1e-9 {
			t.Fatalf("ring rank[%d] = %v, want %v", i, p, 1/float64(n))
		}
	}
}

func TestReverseIsInvolution(t *testing.T) {
	g := RMAT(7, 4, 9)
	rr := Reverse(Reverse(g))
	if rr.N != g.N || rr.Edges() != g.Edges() {
		t.Fatal("double reverse changed size")
	}
	for v := 0; v < g.N; v++ {
		a, b := g.Neighbors(v), rr.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree changed", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d adjacency changed", v)
			}
		}
	}
}

// Property: BFS levels increase by exactly one across tree edges and any
// edge spans at most one level.
func TestBFSLevelProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := Uniform(200, 3, seed)
		lv := BFSLevels(g, 0)
		for v := 0; v < g.N; v++ {
			if lv[v] < 0 {
				continue
			}
			for _, nb := range g.Neighbors(v) {
				if lv[nb] < 0 || lv[nb] > lv[v]+1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dijkstra satisfies the triangle/relaxation condition on every
// edge: d[v] + w(v,u) >= d[u].
func TestDijkstraRelaxationProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := Grid(8, 8, seed, 9)
		d := Dijkstra(g, 0)
		for v := 0; v < g.N; v++ {
			ws := g.Weights(v)
			for i, nb := range g.Neighbors(v) {
				if d[v] != Inf() && d[v]+ws[i] < d[nb]-1e-4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// fromEdgesRef is FromEdges as it sorted rows before it reused scratch
// across rows: sort.Slice on every row, and three fresh slices per
// weighted row.
func fromEdgesRef(n int, src, dst []int32, weights []float32) *CSR {
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
	for v := 0; v < n; v++ {
		lo, hi := g.RowPtr[v], g.RowPtr[v+1]
		if g.W == nil {
			cols := g.Col[lo:hi]
			sort.Slice(cols, func(i, j int) bool { return cols[i] < cols[j] })
			continue
		}
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = i
		}
		cols, ws := g.Col[lo:hi], g.W[lo:hi]
		sort.Slice(idx, func(i, j int) bool { return cols[idx[i]] < cols[idx[j]] })
		nc := make([]int32, len(idx))
		nw := make([]float32, len(idx))
		for i, k := range idx {
			nc[i], nw[i] = cols[k], ws[k]
		}
		copy(cols, nc)
		copy(ws, nw)
	}
	return g
}

// FromEdges must lay out every row as fromEdgesRef does, weights included:
// on weighted rows with duplicate columns the order among the duplicates
// shows in the weights.
func TestFromEdgesMatchesPerRowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	weigh := func(m int) []float32 {
		w := make([]float32, m)
		for i := range w {
			w[i] = 1 + rng.Float32()*7 // distinct with overwhelming odds
		}
		return w
	}
	type input struct {
		name     string
		n        int
		src, dst []int32
		w        []float32
	}
	var inputs []input
	for _, seed := range []int64{1, 42} {
		src, dst := rmatEdges(9, 8, seed)
		inputs = append(inputs,
			input{fmt.Sprintf("rmat/seed%d", seed), 1 << 9, src, dst, nil},
			input{fmt.Sprintf("rmat-weighted/seed%d", seed), 1 << 9, src, dst, weigh(len(src))})
	}
	gs, gd, gw := gridEdges(13, 11, 5, 8)
	inputs = append(inputs, input{"grid", 13 * 11, gs, gd, gw})
	for _, n := range []int{1, 7, 64} {
		m := 20 * n
		src, dst := make([]int32, m), make([]int32, m)
		for i := range src {
			src[i], dst[i] = int32(rng.Intn(n)), int32(rng.Intn(n))
		}
		inputs = append(inputs,
			input{fmt.Sprintf("random/n%d", n), n, src, dst, nil},
			input{fmt.Sprintf("random-weighted/n%d", n), n, src, dst, weigh(m)})
	}
	dups := 0
	for _, in := range inputs {
		got := FromEdges(in.n, in.src, in.dst, in.w)
		want := fromEdgesRef(in.n, in.src, in.dst, in.w)
		if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Col, want.Col) ||
			!slices.Equal(got.W, want.W) || (got.W == nil) != (want.W == nil) {
			t.Fatalf("%s: FromEdges differs from the per-row reference", in.name)
		}
		for v := 0; in.w != nil && v < got.N; v++ {
			cols, ws := got.Neighbors(v), got.Weights(v)
			for i := 1; i < len(cols); i++ {
				if cols[i] == cols[i-1] && ws[i] != ws[i-1] {
					dups++
				}
			}
		}
	}
	if dups == 0 {
		t.Fatal("no weighted row has duplicate columns with distinct weights")
	}
}
