package dataset

import "sort"

// KDTree is a median-split k-d tree over a point set, stored as flat node
// arrays so the knn workload can express "which tree nodes does this query
// touch" as primary-data addresses. Leaves hold ranges of the permuted
// point index array Idx.
type KDTree struct {
	pts *Points

	// Per-node arrays. Internal nodes use Axis/Split/Left/Right; leaves
	// have Left == -1 and hold Idx[Start:End].
	Axis       []int8
	Split      []float32
	Left       []int32
	Right      []int32
	Start, End []int32

	// Idx is the permutation of point indices referenced by leaves.
	Idx []int32

	Root int32
}

// BuildKDTree constructs a tree with the given leaf bucket size.
func BuildKDTree(pts *Points, leafSize int) *KDTree {
	if leafSize < 1 {
		leafSize = 1
	}
	t := &KDTree{pts: pts, Idx: make([]int32, pts.Len())}
	for i := range t.Idx {
		t.Idx[i] = int32(i)
	}
	t.Root = t.build(0, pts.Len(), 0, leafSize)
	return t
}

// Nodes returns the node count.
func (t *KDTree) Nodes() int { return len(t.Axis) }

// IsLeaf reports whether node i is a leaf.
func (t *KDTree) IsLeaf(i int32) bool { return t.Left[i] < 0 }

func (t *KDTree) newNode() int32 {
	t.Axis = append(t.Axis, 0)
	t.Split = append(t.Split, 0)
	t.Left = append(t.Left, -1)
	t.Right = append(t.Right, -1)
	t.Start = append(t.Start, 0)
	t.End = append(t.End, 0)
	return int32(len(t.Axis) - 1)
}

func (t *KDTree) build(lo, hi, depth, leafSize int) int32 {
	id := t.newNode()
	if hi-lo <= leafSize {
		t.Start[id], t.End[id] = int32(lo), int32(hi)
		return id
	}
	axis := depth % t.pts.Dim
	seg := t.Idx[lo:hi]
	sort.Slice(seg, func(i, j int) bool {
		return t.pts.Data[seg[i]][axis] < t.pts.Data[seg[j]][axis]
	})
	mid := (lo + hi) / 2
	t.Axis[id] = int8(axis)
	t.Split[id] = t.pts.Data[t.Idx[mid]][axis]
	// Children are built after the node so left/right IDs are known.
	l := t.build(lo, mid, depth+1, leafSize)
	r := t.build(mid, hi, depth+1, leafSize)
	t.Left[id], t.Right[id] = l, r
	return id
}

// KNNResult describes one query's answer and its data touch set.
type KNNResult struct {
	// Neighbors holds the k nearest point indices, nearest first.
	Neighbors []int32
	// VisitedNodes lists every tree node examined, in visit order.
	VisitedNodes []int32
	// ScannedPoints lists every candidate point whose coordinates were
	// read during leaf scans.
	ScannedPoints []int32

	dist []float32 // squared distance of each of Neighbors
}

// KNN finds the k nearest neighbors of q with standard branch-and-bound
// traversal, recording the touched nodes and points.
func (t *KDTree) KNN(q []float32, k int) *KNNResult {
	res := &KNNResult{Neighbors: make([]int32, 0, k), dist: make([]float32, 0, k)}
	t.KNNInto(res, q, k)
	return res
}

// KNNInto is KNN writing into res: it reuses res's slices, so a traversal
// allocates only to grow them past an earlier query's lengths.
func (t *KDTree) KNNInto(res *KNNResult, q []float32, k int) {
	res.Neighbors = res.Neighbors[:0]
	res.VisitedNodes = res.VisitedNodes[:0]
	res.ScannedPoints = res.ScannedPoints[:0]
	res.dist = res.dist[:0]
	s := knnSearch{t: t, q: q, k: k, res: res}
	s.walk(t.Root)
}

// knnSearch is one KNN traversal: the query and the result it fills.
type knnSearch struct {
	t   *KDTree
	q   []float32
	k   int
	res *KNNResult
}

// insert adds point p at squared distance d to the best-k list, kept
// sorted nearest first.
func (s *knnSearch) insert(p int32, d float32) {
	best, bestD := s.res.Neighbors, s.res.dist
	pos := len(best)
	for pos > 0 && bestD[pos-1] > d {
		pos--
	}
	if len(best) < s.k {
		best = append(best, 0)
		bestD = append(bestD, 0)
	} else if pos >= s.k {
		return
	}
	copy(best[pos+1:], best[pos:])
	copy(bestD[pos+1:], bestD[pos:])
	best[pos], bestD[pos] = p, d
	s.res.Neighbors, s.res.dist = best, bestD
}

// worst returns the pruning bound: the k-th best distance so far.
func (s *knnSearch) worst() float32 {
	if len(s.res.Neighbors) < s.k {
		return float32(1e30)
	}
	return s.res.dist[len(s.res.dist)-1]
}

func (s *knnSearch) walk(node int32) {
	t, res := s.t, s.res
	res.VisitedNodes = append(res.VisitedNodes, node)
	if t.IsLeaf(node) {
		for _, p := range t.Idx[t.Start[node]:t.End[node]] {
			res.ScannedPoints = append(res.ScannedPoints, p)
			s.insert(p, Dist2(s.q, t.pts.Data[p]))
		}
		return
	}
	axis, split := int(t.Axis[node]), t.Split[node]
	near, far := t.Left[node], t.Right[node]
	if s.q[axis] > split {
		near, far = far, near
	}
	s.walk(near)
	diff := s.q[axis] - split
	if diff*diff < s.worst() {
		s.walk(far)
	}
}
