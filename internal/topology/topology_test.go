package topology

import (
	"testing"
	"testing/quick"
)

func default4x4(groups int) *Topology {
	return New(Config{MeshX: 4, MeshY: 4, UnitsPerStack: 8, Groups: groups})
}

func TestCounts(t *testing.T) {
	top := default4x4(4)
	if top.Stacks() != 16 {
		t.Fatalf("Stacks() = %d, want 16", top.Stacks())
	}
	if top.Units() != 128 {
		t.Fatalf("Units() = %d, want 128", top.Units())
	}
	if top.UnitsPerGroup() != 32 {
		t.Fatalf("UnitsPerGroup() = %d, want 32", top.UnitsPerGroup())
	}
	if top.Diameter() != 6 {
		t.Fatalf("Diameter() = %d, want 6", top.Diameter())
	}
}

func TestGroupNumberingIsContiguous(t *testing.T) {
	// Per Figure 5, group membership must follow directly from unit ID.
	top := default4x4(4)
	for u := 0; u < top.Units(); u++ {
		want := u / 32
		if got := top.GroupOf(UnitID(u)); got != want {
			t.Fatalf("GroupOf(%d) = %d, want %d", u, got, want)
		}
	}
	for g := 0; g < 4; g++ {
		members := top.GroupUnits(g)
		if len(members) != 32 {
			t.Fatalf("group %d has %d members, want 32", g, len(members))
		}
		for i, u := range members {
			if int(u) != g*32+i {
				t.Fatalf("group %d member %d = %d", g, i, u)
			}
		}
	}
}

func TestGroupsAreSpatiallyLocalized(t *testing.T) {
	// A group's stacks must form a contiguous tile: the max intra-group
	// stack distance must be strictly smaller than the mesh diameter.
	for _, groups := range []int{2, 4, 8, 16} {
		top := default4x4(groups)
		for g := 0; g < groups; g++ {
			maxIntra := 0
			members := top.GroupUnits(g)
			for _, a := range members {
				for _, b := range members {
					if d := top.InterHops(a, b); d > maxIntra {
						maxIntra = d
					}
				}
			}
			if maxIntra >= top.Diameter() && groups > 1 {
				t.Fatalf("groups=%d g=%d: intra-group distance %d not < diameter %d",
					groups, g, maxIntra, top.Diameter())
			}
		}
	}
}

func TestStackCoordBijection(t *testing.T) {
	top := default4x4(4)
	seen := map[[2]int]bool{}
	for s := 0; s < top.Stacks(); s++ {
		x, y := top.Coord(StackID(s))
		if x < 0 || x >= 4 || y < 0 || y >= 4 {
			t.Fatalf("stack %d coord (%d,%d) out of range", s, x, y)
		}
		if seen[[2]int{x, y}] {
			t.Fatalf("duplicate coord (%d,%d)", x, y)
		}
		seen[[2]int{x, y}] = true
	}
}

func TestHopsMetricProperties(t *testing.T) {
	top := default4x4(4)
	n := top.Stacks()
	for a := 0; a < n; a++ {
		if top.StackHops(StackID(a), StackID(a)) != 0 {
			t.Fatalf("StackHops(%d,%d) != 0", a, a)
		}
		for b := 0; b < n; b++ {
			ab := top.StackHops(StackID(a), StackID(b))
			ba := top.StackHops(StackID(b), StackID(a))
			if ab != ba {
				t.Fatalf("asymmetric hops %d<->%d: %d vs %d", a, b, ab, ba)
			}
			for c := 0; c < n; c++ {
				ac := top.StackHops(StackID(a), StackID(c))
				cb := top.StackHops(StackID(c), StackID(b))
				if ab > ac+cb {
					t.Fatalf("triangle inequality violated: d(%d,%d)=%d > %d+%d",
						a, b, ab, ac, cb)
				}
			}
		}
	}
}

func TestSameStack(t *testing.T) {
	top := default4x4(4)
	if !top.SameStack(0, 7) {
		t.Fatal("units 0 and 7 should share a stack")
	}
	if top.SameStack(7, 8) {
		t.Fatal("units 7 and 8 should not share a stack")
	}
	if top.InterHops(0, 7) != 0 {
		t.Fatal("same-stack inter hops must be 0")
	}
	if top.InterHops(0, 8) == 0 {
		t.Fatal("cross-stack inter hops must be > 0")
	}
}

func TestScales(t *testing.T) {
	cases := []struct {
		x, y, units, diameter int
	}{
		{2, 2, 32, 2},
		{4, 4, 128, 6},
		{8, 8, 512, 14},
	}
	for _, c := range cases {
		top := New(Config{MeshX: c.x, MeshY: c.y, UnitsPerStack: 8, Groups: 4})
		if top.Units() != c.units {
			t.Fatalf("%dx%d: units = %d, want %d", c.x, c.y, top.Units(), c.units)
		}
		if top.Diameter() != c.diameter {
			t.Fatalf("%dx%d: diameter = %d, want %d", c.x, c.y, top.Diameter(), c.diameter)
		}
	}
}

func TestTileFactors(t *testing.T) {
	cases := []struct {
		groups, mx, my int
		ok             bool
	}{
		{1, 4, 4, true},
		{2, 4, 4, true},
		{4, 4, 4, true},
		{8, 4, 4, true},
		{16, 4, 4, true},
		{3, 4, 4, false},
		{32, 4, 4, false},
		{4, 2, 2, true},
		{16, 8, 8, true},
		{4, 3, 3, false},
		{0, 4, 4, false},
		{1 << 30, 4, 4, false}, // rejected without counting to it
	}
	for _, c := range cases {
		gx, gy, ok := TileFactors(c.groups, c.mx, c.my)
		if ok != c.ok {
			t.Fatalf("TileFactors(%d,%d,%d) ok = %v, want %v",
				c.groups, c.mx, c.my, ok, c.ok)
		}
		if ok && gx*gy != c.groups {
			t.Fatalf("TileFactors(%d,%d,%d) = %dx%d", c.groups, c.mx, c.my, gx, gy)
		}
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-tiling group count")
		}
	}()
	New(Config{MeshX: 4, MeshY: 4, UnitsPerStack: 8, Groups: 3})
}

// Property: every unit belongs to exactly one group and group sizes are
// uniform, for any valid (power-of-two) group count.
func TestGroupPartitionProperty(t *testing.T) {
	f := func(gexp uint8) bool {
		groups := 1 << (gexp % 5) // 1..16
		top := default4x4(groups)
		counts := make([]int, groups)
		for u := 0; u < top.Units(); u++ {
			g := top.GroupOf(UnitID(u))
			if g < 0 || g >= groups {
				return false
			}
			counts[g]++
		}
		for _, c := range counts {
			if c != top.Units()/groups {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTorusWrapsDistances(t *testing.T) {
	mesh := New(Config{MeshX: 4, MeshY: 4, UnitsPerStack: 8, Groups: 4})
	torus := New(Config{MeshX: 4, MeshY: 4, UnitsPerStack: 8, Groups: 4, Torus: true})
	if torus.Diameter() >= mesh.Diameter() {
		t.Fatalf("torus diameter %d should be below mesh %d",
			torus.Diameter(), mesh.Diameter())
	}
	// 4x4 torus diameter = 2+2 = 4.
	if torus.Diameter() != 4 {
		t.Fatalf("torus diameter = %d, want 4", torus.Diameter())
	}
	// Opposite corners: 6 hops on the mesh, 2 on the torus.
	var a, b StackID = 0, 0
	for s := 0; s < mesh.Stacks(); s++ {
		x, y := mesh.Coord(StackID(s))
		if x == 0 && y == 0 {
			a = StackID(s)
		}
		if x == 3 && y == 3 {
			b = StackID(s)
		}
	}
	if mesh.StackHops(a, b) != 6 {
		t.Fatalf("mesh corner distance = %d, want 6", mesh.StackHops(a, b))
	}
	// The torus's own numbering differs; find its corners again.
	for s := 0; s < torus.Stacks(); s++ {
		x, y := torus.Coord(StackID(s))
		if x == 0 && y == 0 {
			a = StackID(s)
		}
		if x == 3 && y == 3 {
			b = StackID(s)
		}
	}
	if torus.StackHops(a, b) != 2 {
		t.Fatalf("torus corner distance = %d, want 2", torus.StackHops(a, b))
	}
}
