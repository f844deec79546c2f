// Package topology models the two-level interconnect of the NDP system:
// memory stacks arranged in a 2-D mesh (inter-stack network) and NDP units
// within each stack connected by a crossbar (intra-stack network).
//
// It also implements the localized grouping of NDP units used by the
// Traveller Cache camp-location scheme (paper §4.2, Figure 5): all units are
// divided into G = C+1 contiguous groups of stacks, and units are numbered
// consecutively first within each stack, then within each group, and finally
// across groups, so that a unit's group is simply unitID / unitsPerGroup.
package topology

import "fmt"

// UnitID identifies one NDP unit (one memory channel/vault plus its cores).
type UnitID int

// StackID identifies one memory stack in the mesh.
type StackID int

// Config describes the shape of the NDP system interconnect.
type Config struct {
	// MeshX and MeshY are the inter-stack mesh dimensions (default 4x4).
	MeshX, MeshY int
	// UnitsPerStack is the number of NDP units in each stack (default 8).
	UnitsPerStack int
	// Groups is the number of localized groups (camp count C + 1 home
	// group). It must tile the mesh: there must exist gx, gy with
	// gx*gy == Groups, MeshX % gx == 0 and MeshY % gy == 0.
	Groups int
	// Torus adds wraparound links to the inter-stack mesh, halving worst-
	// case hop distances. The paper's techniques are topology-agnostic
	// (§2.1); this option checks that claim.
	Torus bool
}

// Topology is an immutable description of the NDP interconnect, including
// stack coordinates, unit numbering, groups, and precomputed hop distances.
type Topology struct {
	cfg        Config
	stacks     int
	units      int
	perGroup   int        // units per group
	unitStack  []StackID  // unit -> stack
	unitGroup  []int32    // unit -> group
	stackCoord [][2]int   // stack -> (x, y) mesh coordinate
	stackAt    []StackID  // y*MeshX + x -> stack
	hops       [][]int    // [stackA][stackB] Manhattan distance
	groupUnits [][]UnitID // group -> member units
	diameter   int
}

// New validates cfg and builds the topology. It panics on an invalid
// configuration; configurations are static inputs, never runtime data.
func New(cfg Config) *Topology {
	if cfg.MeshX <= 0 || cfg.MeshY <= 0 || cfg.UnitsPerStack <= 0 {
		panic(fmt.Sprintf("topology: invalid mesh config %+v", cfg))
	}
	if cfg.Groups <= 0 {
		cfg.Groups = 1
	}
	gx, gy, ok := TileFactors(cfg.Groups, cfg.MeshX, cfg.MeshY)
	if !ok {
		panic(fmt.Sprintf("topology: %d groups cannot tile a %dx%d mesh",
			cfg.Groups, cfg.MeshX, cfg.MeshY))
	}

	t := &Topology{
		cfg:    cfg,
		stacks: cfg.MeshX * cfg.MeshY,
	}
	t.units = t.stacks * cfg.UnitsPerStack
	t.perGroup = t.units / cfg.Groups
	t.unitStack = make([]StackID, t.units)
	t.unitGroup = make([]int32, t.units)
	for u := range t.unitStack {
		t.unitStack[u] = StackID(u / cfg.UnitsPerStack)
		t.unitGroup[u] = int32(u / t.perGroup)
	}

	// Enumerate stacks group-tile by group-tile (row-major over tiles,
	// row-major within each tile) so that consecutive stack IDs stay in
	// the same group. tileW x tileH is the size of one group's tile.
	tileW := cfg.MeshX / gx
	tileH := cfg.MeshY / gy
	t.stackCoord = make([][2]int, t.stacks)
	t.stackAt = make([]StackID, t.stacks)
	id := StackID(0)
	for ty := 0; ty < gy; ty++ {
		for tx := 0; tx < gx; tx++ {
			for dy := 0; dy < tileH; dy++ {
				for dx := 0; dx < tileW; dx++ {
					x := tx*tileW + dx
					y := ty*tileH + dy
					t.stackCoord[id] = [2]int{x, y}
					t.stackAt[y*cfg.MeshX+x] = id
					id++
				}
			}
		}
	}

	t.hops = make([][]int, t.stacks)
	for a := 0; a < t.stacks; a++ {
		t.hops[a] = make([]int, t.stacks)
		for b := 0; b < t.stacks; b++ {
			dx := abs(t.stackCoord[a][0] - t.stackCoord[b][0])
			dy := abs(t.stackCoord[a][1] - t.stackCoord[b][1])
			if cfg.Torus {
				if w := cfg.MeshX - dx; w < dx {
					dx = w
				}
				if w := cfg.MeshY - dy; w < dy {
					dy = w
				}
			}
			d := dx + dy
			t.hops[a][b] = d
			if d > t.diameter {
				t.diameter = d
			}
		}
	}

	t.groupUnits = make([][]UnitID, cfg.Groups)
	for g := 0; g < cfg.Groups; g++ {
		members := make([]UnitID, t.perGroup)
		for i := range members {
			members[i] = UnitID(g*t.perGroup + i)
		}
		t.groupUnits[g] = members
	}
	return t
}

// TileFactors finds gx, gy with gx*gy == groups that evenly tile a
// meshX x meshY mesh, preferring the most square tiling. ok is false when
// no tiling exists; New panics on such a group count and config.Validate
// rejects it.
func TileFactors(groups, meshX, meshY int) (gx, gy int, ok bool) {
	best := -1
	for cx := 1; cx <= groups && cx <= meshX; cx++ {
		if groups%cx != 0 {
			continue
		}
		cy := groups / cx
		if cx > meshX || cy > meshY || meshX%cx != 0 || meshY%cy != 0 {
			continue
		}
		score := -abs(cx - cy)
		if best == -1 || score > best {
			best = score
			gx, gy = cx, cy
			ok = true
		}
	}
	return gx, gy, ok
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Config returns the configuration the topology was built from.
func (t *Topology) Config() Config { return t.cfg }

// Units returns the total number of NDP units in the system.
func (t *Topology) Units() int { return t.units }

// Stacks returns the total number of memory stacks.
func (t *Topology) Stacks() int { return t.stacks }

// Groups returns the number of localized groups.
func (t *Topology) Groups() int { return t.cfg.Groups }

// UnitsPerGroup returns the number of units in each group.
func (t *Topology) UnitsPerGroup() int { return t.perGroup }

// Diameter returns the maximum inter-stack hop distance in the mesh.
func (t *Topology) Diameter() int { return t.diameter }

// StackOf returns the stack containing unit u. Units are numbered
// consecutively within each stack; the table makes every per-message stack
// lookup a load instead of a division.
func (t *Topology) StackOf(u UnitID) StackID { return t.unitStack[u] }

// GroupOf returns the localized group containing unit u. Like StackOf it
// reads a table: every camp lookup asks for its home's group.
func (t *Topology) GroupOf(u UnitID) int { return int(t.unitGroup[u]) }

// GroupUnits returns the member units of group g. The returned slice must
// not be modified.
func (t *Topology) GroupUnits(g int) []UnitID { return t.groupUnits[g] }

// Coord returns the mesh (x, y) coordinate of stack s.
func (t *Topology) Coord(s StackID) (x, y int) {
	c := t.stackCoord[s]
	return c[0], c[1]
}

// StackHops returns the Manhattan hop distance between two stacks on the
// inter-stack mesh.
func (t *Topology) StackHops(a, b StackID) int { return t.hops[a][b] }

// InterHops returns the inter-stack mesh hop distance between the stacks of
// two units (0 when they share a stack).
func (t *Topology) InterHops(a, b UnitID) int {
	return t.hops[t.StackOf(a)][t.StackOf(b)]
}

// SameStack reports whether two units are in the same memory stack.
func (t *Topology) SameStack(a, b UnitID) bool {
	return t.StackOf(a) == t.StackOf(b)
}
