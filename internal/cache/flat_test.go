package cache

import (
	"math/bits"
	"math/rand"
	"testing"

	"abndp/internal/mem"
)

// flatL1 is the reference model for L1: the flat sets x ways line and
// valid-bit arrays, MRU-first within each set, that the paged layout
// replaced. It is kept so the paged cache can be checked against it
// operation by operation.
type flatL1 struct {
	ways    int
	setMask uint64
	lines   []mem.Line
	valid   []bool
}

func newFlatL1(bytes, ways int) *flatL1 {
	if ways <= 0 {
		ways = 1
	}
	sets := bytes / mem.LineSize / ways
	if sets < 1 {
		sets = 1
	}
	sets = 1 << (bits.Len(uint(sets)) - 1)
	return &flatL1{
		ways:    ways,
		setMask: uint64(sets - 1),
		lines:   make([]mem.Line, sets*ways),
		valid:   make([]bool, sets*ways),
	}
}

func (c *flatL1) Access(l mem.Line) bool {
	base := int(uint64(l)&c.setMask) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.lines[base+w] == l {
			copy(c.lines[base+1:base+w+1], c.lines[base:base+w])
			copy(c.valid[base+1:base+w+1], c.valid[base:base+w])
			c.lines[base] = l
			c.valid[base] = true
			return true
		}
	}
	copy(c.lines[base+1:base+c.ways], c.lines[base:base+c.ways-1])
	copy(c.valid[base+1:base+c.ways], c.valid[base:base+c.ways-1])
	c.lines[base] = l
	c.valid[base] = true
	return false
}

func (c *flatL1) Contains(l mem.Line) bool {
	base := int(uint64(l)&c.setMask) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.lines[base+w] == l {
			return true
		}
	}
	return false
}

func (c *flatL1) Invalidate() {
	for i := range c.valid {
		c.valid[i] = false
	}
}

func (c *flatL1) occupancy() int {
	n := 0
	for _, v := range c.valid {
		if v {
			n++
		}
	}
	return n
}

// occupancy counts the valid lines of a paged L1.
func occupancy(c *L1) int {
	n := 0
	for _, p := range c.pages {
		if p != nil {
			for _, f := range p.fill {
				n += int(f)
			}
		}
	}
	return n
}

// The paged L1 must be observationally identical to the flat reference:
// the same return value from every operation, and the same occupancy after
// each, over seeded random streams with interleaved invalidations. The
// paged side replays the line-fetch path's split calls: an access is a
// Probe followed by a Fill on a miss, and a bare Probe promotes a hit the
// way the reference's Contains-then-Access does. The geometries cover set counts below, at and
// above one page, and 1, 4 and 16 ways.
func TestPagedMatchesFlat(t *testing.T) {
	const ops = 4000
	seed := int64(0)
	for _, sets := range []int{pageSets / 4, pageSets, 4 * pageSets} {
		for _, ways := range []int{1, 4, 16} {
			seed++
			bytes := sets * ways * mem.LineSize
			paged, flat := NewL1(bytes, ways), newFlatL1(bytes, ways)
			if paged.Sets() != sets {
				t.Fatalf("paged L1 has %d sets, want %d", paged.Sets(), sets)
			}
			rng := rand.New(rand.NewSource(seed))
			span := 2 * sets * ways // twice the capacity: hits and conflicts both
			for op := 0; op < ops; op++ {
				l := mem.Line(rng.Intn(span))
				var name string
				var got, want bool
				switch r := rng.Intn(100); {
				case r < 55:
					name, want = "Access", flat.Access(l)
					if got = paged.Probe(l); !got {
						paged.Fill(l)
					}
				case r < 70:
					name, got, want = "Probe", paged.Probe(l), flat.Contains(l)
					if want {
						flat.Access(l)
					}
				case r < 98:
					name, got, want = "Contains", paged.Contains(l), flat.Contains(l)
				default:
					name = "Invalidate"
					paged.Invalidate()
					flat.Invalidate()
				}
				if got != want || occupancy(paged) != flat.occupancy() {
					t.Fatalf("%d sets x %d ways: op %d %s(%d) = %v, flat %v; occupancy %d vs %d",
						sets, ways, op, name, l, got, want, occupancy(paged), flat.occupancy())
				}
			}
		}
	}
}
