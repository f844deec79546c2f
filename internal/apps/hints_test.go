package apps

import (
	"fmt"
	"slices"
	"testing"

	"abndp/internal/config"
	"abndp/internal/dataset"
	"abndp/internal/mem"
	"abndp/internal/ndp"
	"abndp/internal/task"
)

// hintBuilder is one app's hint builder after Setup: build writes the
// i-th of its n hints into buf.
type hintBuilder struct {
	name  string
	n     int
	build func(buf []mem.Line, i int) []mem.Line
}

// hintBuilders sets up every app at scale 8 on cfg and returns each of its
// hint builders over every element (query, chunk or search cell) it can
// hint.
func hintBuilders(cfg config.Config) []hintBuilder {
	setup := func(a ndp.App) { a.Setup(ndp.NewSystem(cfg, config.DesignB)) }
	p := testParams()

	pr, bfs, sssp, cc := NewPageRank(p), NewBFS(p), NewSSSP(p), NewCC(p)
	astar, gcn, kmeans, knn, spmv := NewAStar(p), NewGCN(p), NewKMeans(p), NewKNN(p), NewSpMV(p)
	for _, a := range []ndp.App{pr, bfs, sssp, cc, astar, gcn, kmeans, knn, spmv} {
		setup(a)
	}
	var chunks [][2]int
	for v := 0; v < gcn.g.N; v++ {
		for c := 0; c < gcn.chunks(v); c++ {
			chunks = append(chunks, [2]int{v, c})
		}
	}
	knnRes := make([]*dataset.KNNResult, len(knn.queries))
	for qi, pi := range knn.queries {
		knnRes[qi] = knn.tree.KNN(knn.pts.Data[pi], knnK)
	}
	return []hintBuilder{
		{"pr", pr.g.N, func(b []mem.Line, v int) []mem.Line { return pr.hint(b, v).Lines }},
		{"bfs", bfs.g.N, func(b []mem.Line, v int) []mem.Line { return bfs.hint(b, v).Lines }},
		{"sssp", sssp.g.N, func(b []mem.Line, v int) []mem.Line { return sssp.hint(b, v).Lines }},
		{"cc", cc.g.N, func(b []mem.Line, v int) []mem.Line { return cc.hint(b, v).Lines }},
		{"astar", astar.k * astar.g.N, func(b []mem.Line, i int) []mem.Line {
			return astar.hint(b, i/astar.g.N, i%astar.g.N).Lines
		}},
		{"gcn.partial", len(chunks), func(b []mem.Line, i int) []mem.Line {
			return gcn.partialHint(b, chunks[i][0], chunks[i][1]).Lines
		}},
		{"gcn.combine", gcn.g.N, func(b []mem.Line, v int) []mem.Line { return gcn.combineHint(b, v).Lines }},
		{"kmeans", kmeans.pts.Len(), func(b []mem.Line, i int) []mem.Line { return kmeans.hint(b, i).Lines }},
		{"knn", len(knn.queries), func(b []mem.Line, qi int) []mem.Line {
			return knn.hint(b, knnRes[qi], qi, knn.queries[qi]).Lines
		}},
		{"spmv", spmv.m.N, func(b []mem.Line, r int) []mem.Line { return spmv.hint(b, r).Lines }},
	}
}

// Every hint builder counts its lines before it appends and grows its
// buffer once: a hint built from no buffer costs one allocation, and a
// hint rebuilt into the buffer that holds it (a recycled task's) costs
// none and comes out the same. On the 72-unit 3x3 mesh units hold odd
// numbers of 16 B elements, so 32 B elements such as knn's tree nodes
// straddle line boundaries, and a count of one line per element falls
// short.
func TestHintsAllocateOnce(t *testing.T) {
	odd := testCfg()
	odd.MeshX, odd.MeshY, odd.CampCount = 3, 3, 2
	var builders []hintBuilder
	for _, cfg := range []config.Config{testCfg(), odd} {
		for _, b := range hintBuilders(cfg) {
			b.name = fmt.Sprintf("%s on mesh %dx%d", b.name, cfg.MeshX, cfg.MeshY)
			builders = append(builders, b)
		}
	}
	for _, b := range builders {
		hints := make([][]mem.Line, b.n)
		fresh := minAllocs(func() {
			for i := range hints {
				hints[i] = b.build(nil, i)
			}
		})
		if fresh > float64(b.n) {
			t.Errorf("%s: %v allocations to build %d hints, want at most one each", b.name, fresh, b.n)
		}
		want := make([][]mem.Line, b.n)
		for i, h := range hints {
			want[i] = slices.Clone(h)
		}
		rebuilt := minAllocs(func() {
			for i := range hints {
				hints[i] = b.build(hints[i], i)
			}
		})
		if rebuilt != 0 {
			t.Errorf("%s: %v allocations to rebuild %d hints into their own buffers, want 0", b.name, rebuilt, b.n)
		}
		for i := range hints {
			if !slices.Equal(hints[i], want[i]) {
				t.Errorf("%s: hint %d rebuilt into its buffer has %d lines, built fresh %d", b.name, i, len(hints[i]), len(want[i]))
				break
			}
		}
	}
}

// minAllocs is the least of three testing.AllocsPerRun rounds of f. That
// count takes in every malloc of the process, so another goroutine's
// allocation can land in a round, and it only ever adds to the round; a
// builder that allocates more than its bound does so in every round.
func minAllocs(f func()) float64 {
	n := testing.AllocsPerRun(1, f)
	for range 2 {
		n = min(n, testing.AllocsPerRun(1, f))
	}
	return n
}

// knn traverses the tree once per query, in InitialTasks: Execute stores
// the neighbors kept there without allocating, and after a run every
// query's result is what a fresh search returns, also at scales whose
// point set holds fewer than knnK points.
func TestKNNExecuteKeepsTraversal(t *testing.T) {
	short := 0
	for _, scale := range []int{8, 1, 2} {
		p := Params{Scale: scale, Seed: 3}
		app := NewKNN(p)
		app.Setup(ndp.NewSystem(testCfg(), config.DesignB))
		var tasks []*task.Task
		app.InitialTasks(func(tk *task.Task) { tasks = append(tasks, tk) })
		if allocs := testing.AllocsPerRun(1, func() {
			for _, tk := range tasks {
				app.Execute(tk, nil)
			}
		}); allocs != 0 {
			t.Errorf("scale %d: Execute allocated %v objects over %d queries, want 0", scale, allocs, len(tasks))
		}

		functional, simulated := NewKNN(p), NewKNN(p)
		ndp.RunFunctional(testCfg(), functional)
		ndp.NewSystem(testCfg(), config.DesignSl).Run(simulated)
		for _, run := range []*KNN{functional, simulated} {
			for qi, pi := range run.Queries() {
				want := run.Tree().KNN(run.Points().Data[pi], knnK).Neighbors
				if got := run.Results()[qi]; !slices.Equal(got, want) {
					t.Fatalf("scale %d query %d: result %v, fresh search %v", scale, qi, got, want)
				}
				if len(want) < knnK {
					short++
				}
			}
		}
	}
	if short == 0 {
		t.Fatal("no query had fewer than knnK neighbors")
	}
}
