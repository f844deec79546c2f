// Package noc models the two-level interconnect cost of moving messages
// between NDP units: a crossbar inside each stack and a 2-D mesh between
// stacks (Table 1: intra 1.5 ns/hop, 0.4 pJ/bit; inter 10 ns/hop, 4 pJ/bit).
//
// A message between units in different stacks pays one crossbar traversal
// at each end plus one mesh hop per Manhattan step between the stacks.
package noc

import (
	"abndp/internal/check"
	"abndp/internal/config"
	"abndp/internal/topology"
)

// Message sizes in bytes. A control message carries a request or a task
// descriptor; a data message carries one cacheline plus its header.
const (
	CtrlBytes = 16
	DataBytes = 80 // 64 B line + 16 B header
)

// Model computes latency, hop counts, and energy for unit-to-unit messages.
type Model struct {
	topo        *topology.Topology
	stacks      int
	intraCycles int64
	interCycles int64 // per mesh hop
	intraPJBit  float64
	interPJBit  float64 // per mesh hop
	// stackLat and stackPJ are the one-way latency and the per-bit energy
	// factor of a message between two distinct units, flattened
	// [stack(from)*stacks + stack(to)]. Between distinct units both depend
	// only on the two stacks, so each entry is the latency or pjPerBit
	// formula evaluated on one pair of distinct units of its stacks, and a
	// lookup is bit-identical to the formula. A message to self costs
	// nothing and reads neither table; a stack of one unit has no distinct
	// pair, and its diagonal entries hold that self cost, zero.
	stackLat []int64
	stackPJ  []float64
}

// New builds the interconnect model for a topology and configuration.
func New(topo *topology.Topology, cfg *config.Config) *Model {
	m := &Model{
		topo:        topo,
		stacks:      topo.Stacks(),
		intraCycles: cfg.Cycles(cfg.IntraHopNS),
		interCycles: cfg.Cycles(cfg.InterHopNS),
		intraPJBit:  cfg.IntraPJPerBit,
		interPJBit:  cfg.InterPJPerBit,
	}
	per := topo.Config().UnitsPerStack
	m.stackLat = make([]int64, m.stacks*m.stacks)
	m.stackPJ = make([]float64, m.stacks*m.stacks)
	for a := 0; a < m.stacks; a++ {
		for b := 0; b < m.stacks; b++ {
			// Units are numbered consecutively within each stack.
			from, to := topology.UnitID(a*per), topology.UnitID(b*per)
			if a == b && per > 1 {
				to++ // a different unit of the same stack
			}
			m.stackLat[a*m.stacks+b] = m.latency(from, to)
			m.stackPJ[a*m.stacks+b] = m.pjPerBit(from, to)
		}
	}
	return m
}

// pair returns the stack-table index of a message from one unit to another.
func (m *Model) pair(from, to topology.UnitID) int {
	return int(m.topo.StackOf(from))*m.stacks + int(m.topo.StackOf(to))
}

// Hops returns the inter-stack mesh hops between the stacks of two units —
// the paper's remote-access metric (Figure 8). Zero for same-stack.
func (m *Model) Hops(from, to topology.UnitID) int {
	return m.topo.InterHops(from, to)
}

// Latency returns the one-way message latency in cycles. Zero when from ==
// to; one crossbar traversal within a stack; crossbar at each end plus mesh
// hops across stacks.
func (m *Model) Latency(from, to topology.UnitID) int64 {
	if from == to {
		return 0
	}
	return m.stackLat[m.pair(from, to)]
}

func (m *Model) latency(from, to topology.UnitID) int64 {
	if from == to {
		return 0
	}
	if m.topo.SameStack(from, to) {
		return m.intraCycles
	}
	hops := int64(m.topo.InterHops(from, to))
	return 2*m.intraCycles + hops*m.interCycles
}

// StackLatencies returns the stack-pair latency table, flattened
// [a*Stacks()+b]: the one-way latency between two distinct units in stacks
// a and b. The table is symmetric. The slice is shared and must not be
// modified.
func (m *Model) StackLatencies() []int64 { return m.stackLat }

// Energy returns the energy in picojoules of moving a message of the given
// size from one unit to another.
func (m *Model) Energy(from, to topology.UnitID, bytes int) float64 {
	return float64(bytes*8) * m.pj(from, to)
}

// pj is the tabled per-bit energy factor of a message, zero to self.
func (m *Model) pj(from, to topology.UnitID) float64 {
	if from == to {
		return 0
	}
	return m.stackPJ[m.pair(from, to)]
}

// pjPerBit is the per-bit energy factor Energy multiplies by the message's
// bit count: zero to self, one crossbar within a stack, crossbar at each
// end plus mesh hops across stacks.
func (m *Model) pjPerBit(from, to topology.UnitID) float64 {
	if from == to {
		return 0
	}
	if m.topo.SameStack(from, to) {
		return m.intraPJBit
	}
	hops := float64(m.topo.InterHops(from, to))
	return 2*m.intraPJBit + hops*m.interPJBit
}

// AuditTable evaluates the structural invariants of the stack-pair tables
// over every unit pair: each latency and energy lookup equals its formula
// recomputed from the topology (the tables hold one pair of units per
// stack pair, so this checks that the cost of every other pair is the
// same), latency is symmetric (a message costs the same in both directions
// on an X-Y-routed mesh), the diagonal is zero, and every cross-stack
// latency is bounded below by its mesh hops. The model is immutable after
// New, so one pass when the checker is installed audits every lookup the
// run will make.
func (m *Model) AuditTable(c *check.Checker) {
	c.Tick()
	units := m.topo.Units()
	for a := 0; a < units; a++ {
		for b := 0; b < units; b++ {
			ua, ub := topology.UnitID(a), topology.UnitID(b)
			got := m.Latency(ua, ub)
			if want := m.latency(ua, ub); got != want {
				c.Violationf("noc.lattable", -1,
					"latency table [%d->%d] = %d, recomputed %d", a, b, got, want)
				return
			}
			if back := m.Latency(ub, ua); got != back {
				c.Violationf("noc.symmetry", -1,
					"latency %d->%d = %d but %d->%d = %d", a, b, got, b, a, back)
				return
			}
			if a == b && got != 0 {
				c.Violationf("noc.diag", -1, "unit %d self-latency %d", a, got)
				return
			}
			if floor := int64(m.Hops(ua, ub)) * m.interCycles; got < floor {
				c.Violationf("noc.hopfloor", -1,
					"latency %d->%d = %d below its %d mesh-hop floor %d", a, b, got, m.Hops(ua, ub), floor)
				return
			}
			if e := m.pj(ua, ub); e != m.pjPerBit(ua, ub) {
				c.Violationf("noc.pjtable", -1,
					"energy table [%d->%d] = %g, recomputed %g", a, b, e, m.pjPerBit(ua, ub))
				return
			}
		}
	}
}

// InterHopCycles returns the per-hop latency of the inter-stack mesh,
// i.e. the D_inter constant of the scheduling cost model (Eq. 2).
func (m *Model) InterHopCycles() int64 { return m.interCycles }

// IntraCycles returns the crossbar traversal latency, i.e. D_intra.
func (m *Model) IntraCycles() int64 { return m.intraCycles }

// Topology returns the topology the model was built over.
func (m *Model) Topology() *topology.Topology { return m.topo }

// XYDir returns the dimension-ordered (X-Y) routing direction of the first
// mesh hop from stack coordinate (fx, fy) toward (tx, ty): X first while
// dx != 0, then Y. The encoding matches the port model and fault.Dir*
// constants: 0 = +X, 1 = -X, 2 = +Y, 3 = -Y.
func XYDir(fx, fy, tx, ty int) int {
	switch {
	case tx < fx:
		return 1
	case tx > fx:
		return 0
	case ty > fy:
		return 2
	default:
		return 3
	}
}
