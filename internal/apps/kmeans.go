package apps

import (
	"abndp/internal/dataset"
	"abndp/internal/mem"
	"abndp/internal/ndp"
	"abndp/internal/task"
)

// kmeansK is the cluster count; kmeansDim the point dimensionality
// (4 floats = 16 B per point).
const (
	kmeansK   = 16
	kmeansDim = 4
)

// KMeans is Lloyd's algorithm with one task per point per iteration. Each
// task reads only its own point (the small centroid table is auxiliary
// data replicated at every unit, §3.1), assigns the point to the nearest
// centroid, and re-enqueues itself. Centroids are recomputed at the
// barrier. Tasks are fully independent and local, which is why the paper
// sees no difference across designs for this workload.
type KMeans struct {
	p   Params
	pts *dataset.Points

	parr *mem.Array // per-point coordinates, 16 B

	centroids  [][]float32
	assignment []int
}

// NewKMeans builds the workload. Defaults: 2^13 points, 3 iterations.
func NewKMeans(p Params) *KMeans {
	return &KMeans{p: p.withDefaults(13, 0, 3)}
}

func (a *KMeans) Name() string { return "kmeans" }

// Assignment exposes the final point-to-cluster mapping for tests.
func (a *KMeans) Assignment() []int { return a.assignment }

// Centroids exposes the cluster centers for tests.
func (a *KMeans) Centroids() [][]float32 { return a.centroids }

// Points exposes the input for tests.
func (a *KMeans) Points() *dataset.Points { return a.pts }

func (a *KMeans) Setup(sys *ndp.System) {
	n := 1 << a.p.Scale
	a.pts = dataset.Clustered(n, kmeansDim, kmeansK, 0, a.p.Seed)
	a.parr = sys.Space.NewArray("kmeans.points", n, 16, mem.Interleave)
	a.assignment = make([]int, n)
	a.centroids = make([][]float32, kmeansK)
	for c := range a.centroids {
		// Deterministic initialization: spread over the input.
		a.centroids[c] = append([]float32(nil), a.pts.Data[c*n/kmeansK]...)
	}
}

// hint builds i's hint into buf (typically a recycled task's line slice).
func (a *KMeans) hint(buf []mem.Line, i int) task.Hint {
	h := task.Hint{Lines: append(emptyLines(buf, 1), a.parr.LineOf(i))}
	if a.p.PerfectHints {
		h.Workload = kmeansK * kmeansDim * 3
	}
	return h
}

func (a *KMeans) InitialTasks(emit func(*task.Task)) {
	for i := 0; i < a.pts.Len(); i++ {
		emit(&task.Task{Elem: i, Hint: a.hint(nil, i)})
	}
}

func (a *KMeans) Execute(t *task.Task, ctx *ndp.ExecCtx) int64 {
	i := t.Elem
	best, bestD := 0, dataset.Dist2(a.pts.Data[i], a.centroids[0])
	for c := 1; c < kmeansK; c++ {
		if d := dataset.Dist2(a.pts.Data[i], a.centroids[c]); d < bestD {
			best, bestD = c, d
		}
	}
	a.assignment[i] = best
	if t.TS+1 < int64(a.p.Iters) {
		c := ctx.Spawn()
		c.Elem = i
		c.Hint = a.hint(c.Hint.Lines, i)
		ctx.Enqueue(c)
	}
	// K distance evaluations of Dim dimensions, ~3 ops each.
	return kmeansK * kmeansDim * 3
}

func (a *KMeans) EndTimestamp(int64) {
	// Recompute centroids from assignments sequentially so the result is
	// independent of intra-timestamp execution order.
	var sums [kmeansK][kmeansDim]float64
	var counts [kmeansK]int
	for i, c := range a.assignment {
		for d := 0; d < kmeansDim; d++ {
			sums[c][d] += float64(a.pts.Data[i][d])
		}
		counts[c]++
	}
	for c := 0; c < kmeansK; c++ {
		if counts[c] == 0 {
			continue
		}
		for d := 0; d < kmeansDim; d++ {
			a.centroids[c][d] = float32(sums[c][d] / float64(counts[c]))
		}
	}
}
