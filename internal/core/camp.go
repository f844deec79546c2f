// Package core implements the paper's primary contribution: the
// camp-location scheme shared by the Traveller Cache and the hybrid task
// scheduler (§4.2), and the scheduling cost model built on top of it (§5.2).
//
// Every cacheline has one home (the NDP unit owning its physical address)
// and C camp locations — one deterministic unit in each of the other C
// localized groups where the line may be cached. Camp unit IDs use a skewed
// per-group mapping: each group derives the in-group unit index from a
// different slice of a mixed address hash, mirroring skewed-associative
// caches. The paper uses raw address bit slices; we slice a mixed hash so
// that the mapping stays uniform under the allocator's structured
// addresses, which preserves the two properties that matter: determinism
// and per-group-independent placement.
package core

import (
	"abndp/internal/mem"
	"abndp/internal/noc"
	"abndp/internal/topology"
)

// CampMap computes camp locations for cachelines.
type CampMap struct {
	topo     *topology.Topology
	space    *mem.Space
	skewed   bool
	perGroup uint64
}

// NewCampMap builds the mapping. skewed selects the paper's skewed
// per-group mapping; false gives the "identical" baseline of Figure 11
// where every group uses the same hash slice.
func NewCampMap(topo *topology.Topology, space *mem.Space, skewed bool) *CampMap {
	return &CampMap{
		topo:     topo,
		space:    space,
		skewed:   skewed,
		perGroup: uint64(topo.UnitsPerGroup()),
	}
}

// splitmix64 is the standard 64-bit finalizer used to decorrelate the
// allocator's structured line addresses before slicing.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// groupBits is how far the hash is shifted per group under skewed mapping.
// 16 bits per group keeps slices independent for up to 4 groups and still
// distinct (wrapped) beyond that.
const groupBits = 16

// Home returns the unit owning line l's physical address.
func (m *CampMap) Home(l mem.Line) topology.UnitID { return m.space.HomeOfLine(l) }

// Camp returns the camp location of line l in group g. If g is the home's
// group, the home itself is returned (that group has no separate camp).
func (m *CampMap) Camp(l mem.Line, g int) topology.UnitID {
	home := m.space.HomeOfLine(l)
	if m.topo.GroupOf(home) == g {
		return home
	}
	h := splitmix64(uint64(l))
	shift := 0
	if m.skewed {
		shift = (g * groupBits) % 48
	}
	idx := (h >> uint(shift)) % m.perGroup
	return m.topo.GroupUnits(g)[idx]
}

// AppendLocations appends line l's possible data locations — the home plus
// one camp per non-home group — to dst and returns it. The home is always
// the first entry. Order is deterministic.
func (m *CampMap) AppendLocations(dst []topology.UnitID, l mem.Line) []topology.UnitID {
	// Same hoisting as Nearest: one home lookup and one hash per line, not
	// per group.
	home := m.space.HomeOfLine(l)
	dst = append(dst, home)
	hg := m.topo.GroupOf(home)
	h := splitmix64(uint64(l))
	for g := 0; g < m.topo.Groups(); g++ {
		if g == hg {
			continue
		}
		shift := 0
		if m.skewed {
			shift = (g * groupBits) % 48
		}
		dst = append(dst, m.topo.GroupUnits(g)[(h>>uint(shift))%m.perGroup])
	}
	return dst
}

// Locations is the allocating convenience form of AppendLocations.
func (m *CampMap) Locations(l mem.Line) []topology.UnitID {
	return m.AppendLocations(make([]topology.UnitID, 0, m.topo.Groups()), l)
}

// Nearest returns the data location of line l closest to unit from (by
// one-way interconnect latency), and whether that location is the home.
// Ties break toward the home first, then the lowest unit ID, so results
// are deterministic.
func (m *CampMap) Nearest(n *noc.Model, l mem.Line, from topology.UnitID) (loc topology.UnitID, isHome bool) {
	// This runs once per remote line transfer, so the per-line work Camp
	// would redo every group iteration — home lookup, home group, address
	// hash — is hoisted out of the loop. The per-group index arithmetic is
	// Camp's own, so the two stay value-identical (audited by the camp
	// cross-check test). Latencies come from from's row of the stack-pair
	// table, with zero for from itself, as noc.Latency defines them.
	stacks := m.topo.Stacks()
	row := n.StackLatencies()[int(m.topo.StackOf(from))*stacks:][:stacks]
	home := m.space.HomeOfLine(l)
	best := home
	bestLat := row[m.topo.StackOf(home)]
	if home == from {
		bestLat = 0
	}
	hg := m.topo.GroupOf(home)
	h := splitmix64(uint64(l))
	for g := 0; g < m.topo.Groups(); g++ {
		if g == hg {
			continue
		}
		shift := 0
		if m.skewed {
			shift = (g * groupBits) % 48
		}
		c := m.topo.GroupUnits(g)[(h>>uint(shift))%m.perGroup]
		lat := row[m.topo.StackOf(c)]
		if c == from {
			lat = 0
		}
		if lat < bestLat || (lat == bestLat && best != home && c < best) {
			best, bestLat = c, lat
		}
	}
	return best, best == home
}

// Skewed reports whether the skewed mapping is in effect.
func (m *CampMap) Skewed() bool { return m.skewed }

// Topology returns the topology the mapping is defined over.
func (m *CampMap) Topology() *topology.Topology { return m.topo }
