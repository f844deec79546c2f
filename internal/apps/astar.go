package apps

import (
	"fmt"
	"math/rand"

	"abndp/internal/graph"
	"abndp/internal/mem"
	"abndp/internal/ndp"
	"abndp/internal/task"
)

// AStar runs a batch of independent A* searches concurrently over one
// shared weighted 2-D grid map — the shape of a path-planning service.
// Each timestamp expands every active search's open set, relaxing edges
// like SSSP but pruning expansions whose f = g + h exceeds that search's
// best goal cost so far. The Manhattan-distance heuristic (scaled by the
// minimum edge weight of 1) is admissible, so every search's final goal
// distance is optimal.
//
// The shared map cells are the hot primary data: central cells appear in
// many searches' frontiers, so distance-based placements pile up on the
// units holding popular map regions.
type AStar struct {
	p    Params
	g    *graph.CSR
	w, h int
	k    int // concurrent searches

	vdata *mem.Array // shared per-cell terrain, 16 B
	adj   *adjacency
	state *mem.Array // per-(search, cell) distance state, 8 B

	src, dst []int
	dist     [][]float32
	nextDist [][]float32
	enqueued [][]bool
	dirty    [][]int32
	bestGoal []float32
	expanded int64
}

// NewAStar builds the workload. Defaults: 2^12 grid cells (64x64),
// 32 concurrent searches.
func NewAStar(p Params) *AStar {
	return &AStar{p: p.withDefaults(12, 4, 1)}
}

// check rejects a scale whose grid has no vertex: the grid side is
// 2^(scale/2)-1, which is 0 below scale 2.
func (a *AStar) check() error {
	if a.p.Scale < 2 {
		return fmt.Errorf("apps: astar needs a scale of at least 2 (or 0 for the default), got %d: its grid would have no vertex", a.p.Scale)
	}
	return nil
}

func (a *AStar) Name() string { return "astar" }

// Searches returns the number of concurrent searches.
func (a *AStar) Searches() int { return a.k }

// GoalDistance returns the best path cost found for search s.
func (a *AStar) GoalDistance(s int) float32 { return a.bestGoal[s] }

// Expanded returns how many node expansions the searches performed.
func (a *AStar) Expanded() int64 { return a.expanded }

// Graph exposes the grid for tests.
func (a *AStar) Graph() *graph.CSR { return a.g }

// Source and Goal expose search s's endpoints for tests.
func (a *AStar) Source(s int) int { return a.src[s] }
func (a *AStar) Goal(s int) int   { return a.dst[s] }

func (a *AStar) Setup(sys *ndp.System) {
	// Side is kept coprime with typical unit counts (powers of two): a
	// power-of-two grid width would alias vertical neighbors onto the
	// same unit under modulo interleaving and fake perfect locality.
	side := 1<<(a.p.Scale/2) - 1
	a.w, a.h = side, side
	a.g = inputGrid(a.w, a.h, a.p.Seed, 8)
	n := a.g.N
	a.k = 32
	a.vdata = sys.Space.NewArray("astar.vdata", n, 16, mem.Interleave)
	a.adj = allocAdjacency(sys.Space, a.vdata, a.g, 8)
	a.state = sys.Space.NewArray("astar.state", a.k*n, 8, mem.Interleave)

	rng := rand.New(rand.NewSource(a.p.Seed + 17))
	a.src = make([]int, a.k)
	a.dst = make([]int, a.k)
	a.dist = make([][]float32, a.k)
	a.nextDist = make([][]float32, a.k)
	a.enqueued = make([][]bool, a.k)
	a.dirty = make([][]int32, a.k)
	a.bestGoal = make([]float32, a.k)
	for s := 0; s < a.k; s++ {
		a.src[s] = rng.Intn(n)
		a.dst[s] = rng.Intn(n)
		a.dist[s] = make([]float32, n)
		a.nextDist[s] = make([]float32, n)
		a.enqueued[s] = make([]bool, n)
		for i := 0; i < n; i++ {
			a.dist[s][i] = graph.Inf()
			a.nextDist[s][i] = graph.Inf()
		}
		a.dist[s][a.src[s]] = 0
		a.bestGoal[s] = graph.Inf()
	}
}

// heuristic is the Manhattan distance from v to search s's goal times the
// minimum edge weight (1), hence admissible.
func (a *AStar) heuristic(s, v int) float32 {
	x, y := v%a.w, v/a.w
	gx, gy := a.dst[s]%a.w, a.dst[s]/a.w
	dx, dy := x-gx, y-gy
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return float32(dx + dy)
}

// hint builds (s, v)'s hint into buf (typically a recycled task's lines).
func (a *AStar) hint(buf []mem.Line, s, v int) task.Hint {
	nbs := a.g.Neighbors(v)
	n := 1 + a.vdata.SpanLines(v) + int(a.adj.n[v]) + spanLines(a.vdata, nbs)
	for _, u := range nbs {
		n += a.state.SpanLines(s*a.g.N + int(u))
	}
	lines := emptyLines(buf, n)
	lines = append(lines, a.state.LineOf(s*a.g.N+v))
	lines = a.vdata.AppendLines(lines, v)
	lines = a.adj.appendLines(lines, v)
	for _, u := range nbs {
		lines = a.vdata.AppendLines(lines, int(u))
		lines = a.state.AppendLines(lines, s*a.g.N+int(u))
	}
	h := task.Hint{Lines: lines}
	if a.p.PerfectHints {
		h.Workload = float64(16 + 6*a.g.Degree(v))
	}
	return h
}

func (a *AStar) InitialTasks(emit func(*task.Task)) {
	for s := 0; s < a.k; s++ {
		emit(&task.Task{Elem: a.src[s], Arg: int64(s), Hint: a.hint(nil, s, a.src[s])})
	}
}

func (a *AStar) Execute(t *task.Task, ctx *ndp.ExecCtx) int64 {
	v := t.Elem
	s := int(t.Arg)
	// Prune: a node whose optimistic total already exceeds this search's
	// best known goal cost cannot lie on a better path.
	if a.dist[s][v]+a.heuristic(s, v) > a.bestGoal[s] {
		return 12
	}
	a.expanded++
	nbs := a.g.Neighbors(v)
	ws := a.g.Weights(v)
	for i, u := range nbs {
		nd := a.dist[s][v] + ws[i]
		if nd < a.dist[s][u] && nd < a.nextDist[s][u] {
			if a.nextDist[s][u] == graph.Inf() {
				a.dirty[s] = append(a.dirty[s], u)
			}
			a.nextDist[s][u] = nd
			if !a.enqueued[s][u] {
				a.enqueued[s][u] = true
				c := ctx.Spawn()
				c.Elem = int(u)
				c.Arg = int64(s)
				c.Hint = a.hint(c.Hint.Lines, s, int(u))
				ctx.Enqueue(c)
			}
		}
	}
	return 16 + 6*int64(len(nbs))
}

func (a *AStar) EndTimestamp(int64) {
	for s := 0; s < a.k; s++ {
		for _, u := range a.dirty[s] {
			if a.nextDist[s][u] < a.dist[s][u] {
				a.dist[s][u] = a.nextDist[s][u]
			}
			a.nextDist[s][u] = graph.Inf()
			a.enqueued[s][u] = false
		}
		a.dirty[s] = a.dirty[s][:0]
		if a.dist[s][a.dst[s]] < a.bestGoal[s] {
			a.bestGoal[s] = a.dist[s][a.dst[s]]
		}
	}
}
