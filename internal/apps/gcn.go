package apps

import (
	"fmt"
	"math/rand"

	"abndp/internal/graph"
	"abndp/internal/mem"
	"abndp/internal/ndp"
	"abndp/internal/task"
)

// gcnF is the feature width: 16 floats = one 64 B cacheline per vertex.
// gcnChunk is the partial-aggregation fan-in per task: NDP GNN designs
// split a vertex's aggregation into fixed-size chunks so that partial sums
// can be computed near the neighbor data and giant hub aggregations become
// many schedulable tasks instead of one indivisible mega-task.
const (
	gcnF     = 16
	gcnChunk = 32
)

// Task kinds.
const (
	gcnPartial = iota // aggregate one chunk of in-neighbors
	gcnCombine        // reduce a vertex's partials, transform, ReLU
)

// GCN runs Iters layers of a graph convolutional network. Each layer takes
// two bulk-synchronous timestamps: partial-aggregation tasks (one per
// gcnChunk in-neighbors of each vertex) followed by per-vertex combine
// tasks that reduce the partials, apply the shared FxF weight matrix and
// ReLU, and write the next-layer features.
type GCN struct {
	p   Params
	g   *graph.CSR
	rev *graph.CSR

	input *graph.CSR // preloaded input (Params.GraphPath), nil = R-MAT

	feat     *mem.Array // per-vertex feature vector, 64 B
	partials *mem.Array // per-(vertex, chunk) partial sum, 64 B
	adj      *adjacency

	chunkOff  []int32 // vertex -> first slot in partials
	cur, next [][]float32
	psum      [][gcnF]float32 // partial sums, indexed by slot
	weights   [gcnF][gcnF]float32
}

// NewGCN builds the workload. Defaults: 2^11 vertices, degree 8, 2 layers.
func NewGCN(p Params) *GCN {
	return &GCN{p: p.withDefaults(11, 8, 2)}
}

func (a *GCN) Name() string { return "gcn" }

// Features exposes the current layer's activations for tests.
func (a *GCN) Features() [][]float32 { return a.cur }

// Graph exposes the input for tests.
func (a *GCN) Graph() *graph.CSR { return a.g }

func (a *GCN) chunks(v int) int {
	return int(a.chunkOff[v+1] - a.chunkOff[v])
}

func (a *GCN) setInput(g *graph.CSR) { a.input = g }

func (a *GCN) Setup(sys *ndp.System) {
	a.g = a.input
	if a.g == nil {
		a.g = inputRMAT(a.p.Scale, a.p.Degree, a.p.Seed)
		a.rev = inputDerived(fmt.Sprintf("rev|rmat|%d|%d|%d", a.p.Scale, a.p.Degree, a.p.Seed),
			func() *graph.CSR { return graph.Reverse(a.g) })
	} else {
		a.rev = graph.Reverse(a.g)
	}
	n := a.g.N
	a.feat = sys.Space.NewArray("gcn.feat", n, mem.LineSize, mem.Interleave)
	a.adj = allocAdjacency(sys.Space, a.feat, a.rev, 4)

	a.chunkOff = make([]int32, n+1)
	for v := 0; v < n; v++ {
		nc := (a.rev.Degree(v) + gcnChunk - 1) / gcnChunk
		if nc == 0 {
			nc = 1 // degree-0 vertices still emit one (empty) partial
		}
		a.chunkOff[v+1] = a.chunkOff[v] + int32(nc)
	}
	slots := int(a.chunkOff[n])
	a.partials = sys.Space.NewArray("gcn.partials", slots, mem.LineSize, mem.Interleave)
	a.psum = make([][gcnF]float32, slots)

	rng := rand.New(rand.NewSource(a.p.Seed + 100))
	a.cur = make([][]float32, n)
	a.next = make([][]float32, n)
	for v := 0; v < n; v++ {
		a.cur[v] = make([]float32, gcnF)
		a.next[v] = make([]float32, gcnF)
		for f := 0; f < gcnF; f++ {
			a.cur[v][f] = rng.Float32()
		}
	}
	for i := 0; i < gcnF; i++ {
		for j := 0; j < gcnF; j++ {
			a.weights[i][j] = rng.Float32()*0.5 - 0.25
		}
	}
}

// chunkNeighbors returns the in-neighbors of v covered by chunk c.
func (a *GCN) chunkNeighbors(v, c int) []int32 {
	nbs := a.rev.Neighbors(v)
	lo := c * gcnChunk
	hi := lo + gcnChunk
	if lo >= len(nbs) {
		return nil
	}
	if hi > len(nbs) {
		hi = len(nbs)
	}
	return nbs[lo:hi]
}

// partialHint builds chunk (v, c)'s hint into buf (typically a recycled
// task's line slice).
func (a *GCN) partialHint(buf []mem.Line, v, c int) task.Hint {
	nbs := a.chunkNeighbors(v, c)
	slot := int(a.chunkOff[v]) + c
	lines := emptyLines(buf, 1+a.partials.SpanLines(slot)+spanLines(a.feat, nbs))
	// Main element: the to-be-updated vertex's feature (design B
	// co-locates all of a vertex's chunks with it).
	lines = append(lines, a.feat.LineOf(v))
	lines = a.partials.AppendLines(lines, slot)
	for _, u := range nbs {
		lines = a.feat.AppendLines(lines, int(u))
	}
	h := task.Hint{Lines: lines}
	if a.p.PerfectHints {
		h.Workload = float64(8 + len(nbs)*gcnF)
	}
	return h
}

// combineHint builds v's combine hint into buf.
func (a *GCN) combineHint(buf []mem.Line, v int) task.Hint {
	lo, hi := int(a.chunkOff[v]), int(a.chunkOff[v+1])
	n := 1 + int(a.adj.n[v])
	for slot := lo; slot < hi; slot++ {
		n += a.partials.SpanLines(slot)
	}
	lines := emptyLines(buf, n)
	lines = append(lines, a.feat.LineOf(v))
	lines = a.adj.appendLines(lines, v)
	for slot := lo; slot < hi; slot++ {
		lines = a.partials.AppendLines(lines, slot)
	}
	h := task.Hint{Lines: lines}
	if a.p.PerfectHints {
		h.Workload = float64((hi-lo)*gcnF + gcnF*gcnF)
	}
	return h
}

func (a *GCN) InitialTasks(emit func(*task.Task)) {
	for v := 0; v < a.g.N; v++ {
		for c := 0; c < a.chunks(v); c++ {
			emit(&task.Task{Kind: gcnPartial, Elem: v, Arg: int64(c), Hint: a.partialHint(nil, v, c)})
		}
	}
}

func (a *GCN) Execute(t *task.Task, ctx *ndp.ExecCtx) int64 {
	switch t.Kind {
	case gcnPartial:
		v, c := t.Elem, int(t.Arg)
		slot := int(a.chunkOff[v]) + c
		var sum [gcnF]float32
		nbs := a.chunkNeighbors(v, c)
		for _, u := range nbs {
			for f := 0; f < gcnF; f++ {
				sum[f] += a.cur[u][f]
			}
		}
		a.psum[slot] = sum
		// The first chunk of each vertex enqueues the combine task.
		if c == 0 {
			ct := ctx.Spawn()
			ct.Kind = gcnCombine
			ct.Elem = v
			ct.Hint = a.combineHint(ct.Hint.Lines, v)
			ctx.Enqueue(ct)
		}
		return 8 + int64(len(nbs))*gcnF

	case gcnCombine:
		v := t.Elem
		out := a.Combine(v)
		copy(a.next[v], out)
		// Next layer's partial tasks.
		if (t.TS+1)/2 < int64(a.p.Iters) {
			for c := 0; c < a.chunks(v); c++ {
				pt := ctx.Spawn()
				pt.Kind = gcnPartial
				pt.Elem = v
				pt.Arg = int64(c)
				pt.Hint = a.partialHint(pt.Hint.Lines, v, c)
				ctx.Enqueue(pt)
			}
		}
		return int64(a.chunks(v))*gcnF + gcnF*gcnF
	}
	panic("gcn: unknown task kind")
}

// Combine reduces v's partial sums and applies the layer transform —
// shared with the reference implementation in tests.
func (a *GCN) Combine(v int) []float32 {
	var agg [gcnF]float32
	for c := 0; c < a.chunks(v); c++ {
		p := a.psum[int(a.chunkOff[v])+c]
		for f := 0; f < gcnF; f++ {
			agg[f] += p[f]
		}
	}
	deg := a.rev.Degree(v)
	for f := 0; f < gcnF; f++ {
		agg[f] += a.cur[v][f]
		agg[f] /= float32(deg + 1)
	}
	out := make([]float32, gcnF)
	for i := 0; i < gcnF; i++ {
		var s float32
		for j := 0; j < gcnF; j++ {
			s += a.weights[i][j] * agg[j]
		}
		if s < 0 {
			s = 0 // ReLU
		}
		out[i] = s
	}
	return out
}

// Reference computes the expected layer output for v from activations cur,
// bypassing the chunked execution path (for tests).
func (a *GCN) Reference(cur [][]float32, v int) []float32 {
	var agg [gcnF]float32
	for _, u := range a.rev.Neighbors(v) {
		for f := 0; f < gcnF; f++ {
			agg[f] += cur[u][f]
		}
	}
	deg := a.rev.Degree(v)
	for f := 0; f < gcnF; f++ {
		agg[f] += cur[v][f]
		agg[f] /= float32(deg + 1)
	}
	out := make([]float32, gcnF)
	for i := 0; i < gcnF; i++ {
		var s float32
		for j := 0; j < gcnF; j++ {
			s += a.weights[i][j] * agg[j]
		}
		if s < 0 {
			s = 0
		}
		out[i] = s
	}
	return out
}

// EndTimestamp swaps feature buffers after each combine phase (odd ts).
func (a *GCN) EndTimestamp(ts int64) {
	if ts%2 == 1 {
		a.cur, a.next = a.next, a.cur
	}
}
