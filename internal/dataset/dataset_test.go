package dataset

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestClusteredShape(t *testing.T) {
	p := Clustered(500, 4, 8, 0, 1)
	if p.Len() != 500 || p.Dim != 4 {
		t.Fatalf("shape = %d x %d", p.Len(), p.Dim)
	}
	for _, pt := range p.Data {
		if len(pt) != 4 {
			t.Fatal("ragged point")
		}
	}
}

func TestClusteredDeterministic(t *testing.T) {
	a := Clustered(100, 3, 4, 1.0, 9)
	b := Clustered(100, 3, 4, 1.0, 9)
	for i := range a.Data {
		for d := range a.Data[i] {
			if a.Data[i][d] != b.Data[i][d] {
				t.Fatal("Clustered not deterministic")
			}
		}
	}
}

func TestZipfIndicesSkewed(t *testing.T) {
	idx := ZipfIndices(10000, 1000, 1.0, 3)
	counts := map[int]int{}
	for _, i := range idx {
		if i < 0 || i >= 1000 {
			t.Fatalf("index %d out of range", i)
		}
		counts[i]++
	}
	// Index 0 must dominate a uniform share by a wide margin.
	if counts[0] < 5*(10000/1000) {
		t.Fatalf("Zipf head count %d too small; not skewed", counts[0])
	}
}

func TestDist(t *testing.T) {
	a := []float32{0, 3}
	b := []float32{4, 0}
	if Dist2(a, b) != 25 {
		t.Fatalf("Dist2 = %v, want 25", Dist2(a, b))
	}
	if Dist(a, b) != 5 {
		t.Fatalf("Dist = %v, want 5", Dist(a, b))
	}
}

func TestKDTreeCoversAllPoints(t *testing.T) {
	p := Clustered(333, 3, 5, 0.5, 2)
	tree := BuildKDTree(p, 8)
	seen := make([]bool, p.Len())
	for n := int32(0); n < int32(tree.Nodes()); n++ {
		if !tree.IsLeaf(n) {
			continue
		}
		for _, idx := range tree.Idx[tree.Start[n]:tree.End[n]] {
			if seen[idx] {
				t.Fatalf("point %d in two leaves", idx)
			}
			seen[idx] = true
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("point %d in no leaf", i)
		}
	}
}

func TestKDTreeLeafSize(t *testing.T) {
	p := Clustered(200, 2, 3, 0, 4)
	tree := BuildKDTree(p, 8)
	for n := int32(0); n < int32(tree.Nodes()); n++ {
		if tree.IsLeaf(n) {
			if sz := tree.End[n] - tree.Start[n]; sz > 8 || sz < 1 {
				t.Fatalf("leaf %d holds %d points", n, sz)
			}
		}
	}
}

// bruteKNN is the reference for KNN correctness.
func bruteKNN(p *Points, q []float32, k int) []int32 {
	type pd struct {
		i int32
		d float32
	}
	all := make([]pd, p.Len())
	for i := range p.Data {
		all[i] = pd{int32(i), Dist2(q, p.Data[i])}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].d != all[b].d {
			return all[a].d < all[b].d
		}
		return all[a].i < all[b].i
	})
	out := make([]int32, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].i
	}
	return out
}

func TestKNNMatchesBruteForce(t *testing.T) {
	p := Clustered(400, 3, 6, 0.8, 11)
	tree := BuildKDTree(p, 8)
	for qi := 0; qi < 50; qi++ {
		q := p.Data[qi*7%p.Len()]
		got := tree.KNN(q, 4)
		want := bruteKNN(p, q, 4)
		// Compare by distance (ties may order differently).
		for i := range want {
			gd := Dist2(q, p.Data[got.Neighbors[i]])
			wd := Dist2(q, p.Data[want[i]])
			if gd != wd {
				t.Fatalf("query %d: neighbor %d distance %v, want %v", qi, i, gd, wd)
			}
		}
	}
}

func TestKNNRecordsTouchedData(t *testing.T) {
	p := Clustered(500, 3, 4, 0.5, 6)
	tree := BuildKDTree(p, 8)
	res := tree.KNN(p.Data[0], 4)
	if len(res.VisitedNodes) == 0 {
		t.Fatal("no visited nodes recorded")
	}
	if res.VisitedNodes[0] != tree.Root {
		t.Fatal("traversal must start at the root")
	}
	if len(res.ScannedPoints) < len(res.Neighbors) {
		t.Fatal("scanned fewer points than neighbors returned")
	}
	// Branch-and-bound must not scan everything for a clustered query.
	if len(res.ScannedPoints) >= p.Len() {
		t.Fatal("KNN degenerated to a full scan")
	}
}

// Property: KNN neighbor distances are sorted ascending and are a subset of
// scanned points.
func TestKNNOrderingProperty(t *testing.T) {
	p := Clustered(300, 2, 5, 0.7, 13)
	tree := BuildKDTree(p, 8)
	f := func(qraw uint16, kraw uint8) bool {
		q := p.Data[int(qraw)%p.Len()]
		k := int(kraw%8) + 1
		res := tree.KNN(q, k)
		scanned := map[int32]bool{}
		for _, s := range res.ScannedPoints {
			scanned[s] = true
		}
		last := float32(-1)
		for _, nb := range res.Neighbors {
			if !scanned[nb] {
				return false
			}
			d := Dist2(q, p.Data[nb])
			if d < last {
				return false
			}
			last = d
		}
		return len(res.Neighbors) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// KNNInto answers every query as KNN does while reusing one result, also
// on a tree with fewer points than k, and once the result has grown a
// traversal allocates nothing.
func TestKNNIntoMatchesKNN(t *testing.T) {
	var res KNNResult
	for _, n := range []int{3, 500} {
		p := Clustered(n, 4, 8, 0.8, 21)
		tree := BuildKDTree(p, 8)
		for _, k := range []int{1, 4, 9} {
			for qi, q := range p.Data {
				tree.KNNInto(&res, q, k)
				want := tree.KNN(q, k)
				if !slices.Equal(res.Neighbors, want.Neighbors) ||
					!slices.Equal(res.VisitedNodes, want.VisitedNodes) ||
					!slices.Equal(res.ScannedPoints, want.ScannedPoints) {
					t.Fatalf("n=%d k=%d query %d: KNNInto differs from KNN", n, k, qi)
				}
				if len(res.Neighbors) != min(k, n) {
					t.Fatalf("n=%d k=%d query %d: %d neighbors", n, k, qi, len(res.Neighbors))
				}
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { tree.KNNInto(&res, p.Data[n/2], 4) }); allocs != 0 {
			t.Fatalf("n=%d: KNNInto into a grown result allocated %v objects", n, allocs)
		}
	}
}
