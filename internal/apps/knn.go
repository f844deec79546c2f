package apps

import (
	"abndp/internal/dataset"
	"abndp/internal/mem"
	"abndp/internal/ndp"
	"abndp/internal/task"
)

// knnDim is the point dimensionality; knnK the neighbor count; knnLeaf the
// KD-tree bucket size.
const (
	knnDim  = 4
	knnK    = 4
	knnLeaf = 8
)

// KNN answers a skewed stream of k-nearest-neighbor queries over a KD-tree.
// Each query is one task whose hint covers the tree nodes it visits and the
// candidate points it scans — the top tree nodes appear in every query, and
// the Zipf-skewed query stream hammers a few popular leaves, making this
// the most load-imbalanced workload (as in the paper, where designs without
// load balancing perform substantially worse).
type KNN struct {
	p    Params
	pts  *dataset.Points
	tree *dataset.KDTree

	parr *mem.Array // point coordinates, 16 B each
	narr *mem.Array // tree nodes, 32 B each
	qarr *mem.Array // per-query descriptor + result slot, 32 B each

	queries []int // query point index per task
	results [][]int32

	// InitialTasks traverses the tree once per query and keeps what
	// Execute needs: query qi's neighbors are nbrs[nbrOff[qi]:nbrOff[qi+1]]
	// (fewer than knnK when the point set is smaller) and its instruction
	// estimate is work[qi].
	nbrs   []int32
	nbrOff []int32
	work   []int64
}

// NewKNN builds the workload. Defaults: 2^12 points, 2^11 queries.
func NewKNN(p Params) *KNN {
	return &KNN{p: p.withDefaults(12, 0, 1)}
}

func (a *KNN) Name() string { return "knn" }

// Results exposes per-query neighbor lists for tests.
func (a *KNN) Results() [][]int32 { return a.results }

// Tree exposes the KD-tree for tests.
func (a *KNN) Tree() *dataset.KDTree { return a.tree }

// Points exposes the input for tests.
func (a *KNN) Points() *dataset.Points { return a.pts }

// Queries exposes the query stream for tests.
func (a *KNN) Queries() []int { return a.queries }

func (a *KNN) Setup(sys *ndp.System) {
	n := 1 << a.p.Scale
	nq := n / 2
	// Skewed clusters concentrate both data and queries.
	a.pts = dataset.Clustered(n, knnDim, 32, 0.8, a.p.Seed)
	a.tree = dataset.BuildKDTree(a.pts, knnLeaf)
	a.parr = sys.Space.NewArray("knn.points", n, 16, mem.Interleave)
	a.narr = sys.Space.NewArray("knn.nodes", a.tree.Nodes(), 32, mem.Interleave)
	a.qarr = sys.Space.NewArray("knn.queries", nq, 32, mem.Interleave)
	a.queries = dataset.ZipfIndices(nq, n, 0.8, a.p.Seed+7)
	a.results = make([][]int32, nq)
}

// hint builds query qi's hint (query point pi) from its traversal res,
// into buf.
func (a *KNN) hint(buf []mem.Line, res *dataset.KNNResult, qi, pi int) task.Hint {
	n := 1 + a.parr.SpanLines(pi) + spanLines(a.narr, res.VisitedNodes) + spanLines(a.parr, res.ScannedPoints)
	lines := emptyLines(buf, n)
	lines = append(lines, a.qarr.LineOf(qi))
	lines = a.parr.AppendLines(lines, pi)
	for _, nd := range res.VisitedNodes {
		lines = a.narr.AppendLines(lines, int(nd))
	}
	for _, sp := range res.ScannedPoints {
		lines = a.parr.AppendLines(lines, int(sp))
	}
	h := task.Hint{Lines: lines}
	if a.p.PerfectHints {
		h.Workload = float64(knnWork(res))
	}
	return h
}

// knnWork is a query's instruction estimate: ~12 instructions per visited
// node (axis compare + bound check), ~3*Dim per scanned candidate.
func knnWork(res *dataset.KNNResult) int64 {
	return 12*int64(len(res.VisitedNodes)) + 3*knnDim*int64(len(res.ScannedPoints))
}

func (a *KNN) InitialTasks(emit func(*task.Task)) {
	a.nbrs = make([]int32, 0, len(a.queries)*knnK)
	a.nbrOff = make([]int32, len(a.queries)+1)
	a.work = make([]int64, len(a.queries))
	var res dataset.KNNResult
	for qi, pi := range a.queries {
		// The traversal (and therefore the touch set) is a deterministic
		// function of the query point; run it once here to build the
		// hint and keep the answer for Execute. The main element is the
		// query's own descriptor/result slot, so the baseline B spreads
		// queries evenly — the imbalance of this workload comes from the
		// shared hot tree nodes and popular leaves, which pull
		// distance-based placements together.
		a.tree.KNNInto(&res, a.pts.Data[pi], knnK)
		a.nbrs = append(a.nbrs, res.Neighbors...)
		a.nbrOff[qi+1] = int32(len(a.nbrs))
		a.work[qi] = knnWork(&res)
		emit(&task.Task{Elem: qi, Hint: a.hint(nil, &res, qi, pi)})
	}
}

func (a *KNN) Execute(t *task.Task, ctx *ndp.ExecCtx) int64 {
	qi := t.Elem
	lo, hi := a.nbrOff[qi], a.nbrOff[qi+1]
	a.results[qi] = a.nbrs[lo:hi:hi]
	return a.work[qi]
}

func (a *KNN) EndTimestamp(int64) {}
