package noc

import (
	"math"
	"testing"

	"abndp/internal/check"
	"abndp/internal/config"
	"abndp/internal/topology"
)

func newModel() *Model {
	cfg := config.Default()
	topo := topology.New(topology.Config{
		MeshX: cfg.MeshX, MeshY: cfg.MeshY,
		UnitsPerStack: cfg.UnitsPerStack, Groups: cfg.Groups(),
	})
	return New(topo, &cfg)
}

func TestLatencyTiers(t *testing.T) {
	m := newModel()
	if m.Latency(0, 0) != 0 {
		t.Fatal("self latency must be 0")
	}
	// Same stack: one crossbar traversal at 1.5 ns = 3 cycles.
	if got := m.Latency(0, 7); got != 3 {
		t.Fatalf("intra-stack latency = %d, want 3", got)
	}
	// Different stack: 2 crossbar + hops * 20 cycles.
	hops := int64(m.Hops(0, 8))
	if hops == 0 {
		t.Fatal("units 0 and 8 should be in different stacks")
	}
	if got := m.Latency(0, 8); got != 6+hops*20 {
		t.Fatalf("inter-stack latency = %d, want %d", got, 6+hops*20)
	}
}

func TestLatencySymmetric(t *testing.T) {
	m := newModel()
	n := topology.UnitID(m.Topology().Units())
	for a := topology.UnitID(0); a < n; a += 13 {
		for b := topology.UnitID(0); b < n; b += 17 {
			if m.Latency(a, b) != m.Latency(b, a) {
				t.Fatalf("latency asymmetric between %d and %d", a, b)
			}
			if m.Energy(a, b, DataBytes) != m.Energy(b, a, DataBytes) {
				t.Fatalf("energy asymmetric between %d and %d", a, b)
			}
		}
	}
}

func TestEnergyTiers(t *testing.T) {
	m := newModel()
	if m.Energy(0, 0, DataBytes) != 0 {
		t.Fatal("self energy must be 0")
	}
	intra := m.Energy(0, 7, DataBytes)
	if want := float64(DataBytes*8) * 0.4; intra != want {
		t.Fatalf("intra energy = %v, want %v", intra, want)
	}
	inter := m.Energy(0, 8, DataBytes)
	if inter <= intra {
		t.Fatal("inter-stack transfer must cost more than intra-stack")
	}
	hops := float64(m.Hops(0, 8))
	if want := float64(DataBytes*8) * (2*0.4 + hops*4); inter != want {
		t.Fatalf("inter energy = %v, want %v", inter, want)
	}
}

func TestEnergyScalesWithDistance(t *testing.T) {
	m := newModel()
	// Find two destinations at different hop counts from unit 0.
	var near, far topology.UnitID = -1, -1
	for u := topology.UnitID(8); u < topology.UnitID(m.Topology().Units()); u++ {
		h := m.Hops(0, u)
		if h == 1 && near < 0 {
			near = u
		}
		if h >= 3 && far < 0 {
			far = u
		}
	}
	if near < 0 || far < 0 {
		t.Fatal("test topology too small")
	}
	if m.Energy(0, far, DataBytes) <= m.Energy(0, near, DataBytes) {
		t.Fatal("energy must grow with hop distance")
	}
	if m.Latency(0, far) <= m.Latency(0, near) {
		t.Fatal("latency must grow with hop distance")
	}
}

func TestConstants(t *testing.T) {
	m := newModel()
	if m.InterHopCycles() != 20 {
		t.Fatalf("InterHopCycles = %d, want 20", m.InterHopCycles())
	}
	if m.IntraCycles() != 3 {
		t.Fatalf("IntraCycles = %d, want 3", m.IntraCycles())
	}
}

// The default mesh's latency table passes its structural audit.
func TestNocAuditTableClean(t *testing.T) {
	m := newModel()
	c := check.New()
	m.AuditTable(c)
	if !c.Ok() {
		t.Fatalf("clean table flagged: %v", c.Violations())
	}
	if c.Checks() == 0 {
		t.Fatal("audit evaluated nothing")
	}
}

// ...and a corrupted entry in either stack table is caught by its rule.
func TestNocAuditTableDetectsCorruption(t *testing.T) {
	for _, tc := range []struct {
		rule    string
		corrupt func(m *Model)
	}{
		// stack 0 -> stack 1, off by one cycle
		{"noc.lattable", func(m *Model) { m.stackLat[1]-- }},
		{"noc.pjtable", func(m *Model) { m.stackPJ[1] *= 1.5 }},
	} {
		m := newModel()
		tc.corrupt(m)
		c := check.New()
		m.AuditTable(c)
		if c.Ok() {
			t.Fatalf("audit missed the corrupted %s entry", tc.rule)
		}
		if vs := c.Violations(); vs[0].Rule != tc.rule {
			t.Fatalf("corrupted %s entry: unexpected rule: %v", tc.rule, vs)
		}
	}
}

// The stack-pair tables must reproduce the latency and energy formulas bit
// for bit on every unit pair, including the same-stack pairs the tables
// hold one representative of, on meshes with one, two and eight units per
// stack, with and without the torus.
func TestNocTablesMatchFormulas(t *testing.T) {
	for _, mesh := range []int{2, 3, 4, 8} {
		for _, per := range []int{1, 2, 8} {
			for _, torus := range []bool{false, true} {
				cfg := config.Default()
				topo := topology.New(topology.Config{
					MeshX: mesh, MeshY: mesh, UnitsPerStack: per, Groups: 1, Torus: torus,
				})
				m := New(topo, &cfg)
				n := topology.UnitID(topo.Units())
				for a := topology.UnitID(0); a < n; a++ {
					for b := topology.UnitID(0); b < n; b++ {
						if got, want := m.Latency(a, b), m.latency(a, b); got != want {
							t.Fatalf("mesh %d, %d/stack, torus %v: Latency(%d, %d) = %d, formula %d",
								mesh, per, torus, a, b, got, want)
						}
						for _, bytes := range []int{CtrlBytes, DataBytes} {
							got := m.Energy(a, b, bytes)
							want := float64(bytes*8) * m.pjPerBit(a, b)
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("mesh %d, %d/stack, torus %v: Energy(%d, %d, %d) = %v, formula %v",
									mesh, per, torus, a, b, bytes, got, want)
							}
						}
					}
				}
			}
		}
	}
}
