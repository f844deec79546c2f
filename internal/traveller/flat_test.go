package traveller

import (
	"math/bits"
	"math/rand"
	"testing"

	"abndp/internal/check"
	"abndp/internal/config"
	"abndp/internal/mem"
)

// flatCache is the reference model for Cache: the flat sets x ways tag
// arrays with per-entry epoch validity stamps that the paged layout
// replaced. It is kept verbatim (minus the audit) so the paged cache can be
// checked against it operation by operation.
type flatCache struct {
	ways    int
	sets    int
	setMask uint64
	lines   []mem.Line // flattened [set][way]
	epoch   []uint32   // per-entry validity stamp: entry i is valid iff epoch[i] == cur
	cur     uint32     // current validity epoch; bumping it is the bulk invalidation
	lru     []int8     // per-entry recency rank (0 = MRU), only under LRU

	bypassProb float64
	useLRU     bool
	disabled   bool
	rng        uint64

	hits, misses, inserts, bypasses int64
	deadProbes                      int64
}

func newFlat(cfg *config.Config, seed uint64) *flatCache {
	bytes := cfg.CacheBytes()
	ways := cfg.CacheWays
	sets := int(bytes) / mem.LineSize / ways
	if sets < 1 {
		sets = 1
	}
	sets = 1 << (bits.Len(uint(sets)) - 1)
	c := &flatCache{
		ways:       ways,
		sets:       sets,
		setMask:    uint64(sets - 1),
		lines:      make([]mem.Line, sets*ways),
		epoch:      make([]uint32, sets*ways),
		cur:        1,
		bypassProb: cfg.BypassProb,
		useLRU:     cfg.Replacement == config.ReplaceLRU,
		rng:        seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
	}
	if c.useLRU {
		c.lru = make([]int8, sets*ways)
	}
	return c
}

func (c *flatCache) next() uint64 {
	c.rng += 0x9e3779b97f4a7c15
	x := c.rng
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (c *flatCache) Probe(l mem.Line) bool {
	if c.disabled {
		c.deadProbes++
		return false
	}
	base := int(uint64(l)&c.setMask) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.epoch[base+w] == c.cur && c.lines[base+w] == l {
			c.hits++
			if c.useLRU {
				c.promote(base, w, c.lru[base+w])
			}
			return true
		}
	}
	c.misses++
	return false
}

func (c *flatCache) promote(base, w int, old int8) {
	for i := 0; i < c.ways; i++ {
		if c.lru[base+i] < old {
			c.lru[base+i]++
		}
	}
	c.lru[base+w] = 0
}

func (c *flatCache) Contains(l mem.Line) bool {
	base := int(uint64(l)&c.setMask) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.epoch[base+w] == c.cur && c.lines[base+w] == l {
			return true
		}
	}
	return false
}

func (c *flatCache) Insert(l mem.Line) bool {
	if c.disabled {
		return false
	}
	if c.Contains(l) {
		return false
	}
	if c.bypassProb > 0 {
		if float64(c.next()>>11)/float64(1<<53) < c.bypassProb {
			c.bypasses++
			return false
		}
	}
	base := int(uint64(l)&c.setMask) * c.ways
	way := -1
	for w := 0; w < c.ways; w++ {
		if c.epoch[base+w] != c.cur {
			way = w
			break
		}
	}
	if way < 0 {
		if c.useLRU {
			for w := 0; w < c.ways; w++ {
				if int(c.lru[base+w]) == c.ways-1 {
					way = w
					break
				}
			}
		}
		if way < 0 {
			way = int(c.next() % uint64(c.ways))
		}
	}
	c.lines[base+way] = l
	c.epoch[base+way] = c.cur
	if c.useLRU {
		c.promote(base, way, int8(c.ways-1))
	}
	c.inserts++
	return true
}

func (c *flatCache) InvalidateAll() {
	c.cur++
	if c.cur == 0 {
		for i := range c.epoch {
			c.epoch[i] = 0
		}
		c.cur = 1
	}
}

func (c *flatCache) Disable() {
	c.disabled = true
	c.InvalidateAll()
}

func (c *flatCache) Occupancy() int {
	n := 0
	for _, e := range c.epoch {
		if e == c.cur {
			n++
		}
	}
	return n
}

func (c *flatCache) Stats() (hits, misses, inserts, bypasses, deadProbes int64) {
	return c.hits, c.misses, c.inserts, c.bypasses, c.deadProbes
}

// The paged cache must be observationally identical to the flat reference:
// the same return value from every Probe, Insert and Contains, and the same
// Stats and Occupancy after every operation, over seeded random streams
// that mix in bulk invalidations and, late in the stream, a Disable. The
// geometries cover set counts below, at and above one tag page, the Fig. 15
// associativities, both replacement policies and both bypass settings; the
// audit stays armed on the paged side throughout.
func TestPagedMatchesFlat(t *testing.T) {
	const ops = 4000
	seed := uint64(0)
	for _, sets := range []int{pageSets / 4, pageSets, 4 * pageSets} {
		for _, ways := range []int{1, 4, 16} {
			for _, repl := range []config.Replacement{config.ReplaceRandom, config.ReplaceLRU} {
				for _, bypass := range []float64{0, 0.4} {
					seed++
					cfg := config.Default()
					cfg.CacheWays = ways
					cfg.Replacement = repl
					cfg.BypassProb = bypass
					cfg.UnitBytes = uint64(sets * ways * mem.LineSize * cfg.CacheRatio)
					paged, flat := New(&cfg, seed), newFlat(&cfg, seed)
					if paged.Sets() != sets || flat.sets != sets {
						t.Fatalf("geometry: paged %d sets, flat %d, want %d", paged.Sets(), flat.sets, sets)
					}
					paged.Audit = check.New()
					rng := rand.New(rand.NewSource(int64(seed)))
					span := 2 * sets * ways // twice the capacity: hits and conflicts both
					for op := 0; op < ops; op++ {
						l := mem.Line(rng.Intn(span))
						var name string
						var got, want bool
						switch r := rng.Intn(100); {
						case op == ops*7/8:
							name = "Disable"
							paged.Disable()
							flat.Disable()
						case r < 45:
							name, got, want = "Probe", paged.Probe(l), flat.Probe(l)
						case r < 90:
							name, got, want = "Insert", paged.Insert(l), flat.Insert(l)
						case r < 98:
							name, got, want = "Contains", paged.Contains(l), flat.Contains(l)
						default:
							name = "InvalidateAll"
							paged.InvalidateAll()
							flat.InvalidateAll()
						}
						h, m, ins, byp, dead := paged.Stats()
						fh, fm, fins, fbyp, fdead := flat.Stats()
						if got != want || paged.Occupancy() != flat.Occupancy() ||
							h != fh || m != fm || ins != fins || byp != fbyp || dead != fdead {
							t.Fatalf("%d sets x %d ways, %v, bypass %v: op %d %s(%d) = %v, flat %v; "+
								"stats %d/%d/%d/%d/%d vs %d/%d/%d/%d/%d; occupancy %d vs %d",
								sets, ways, repl, bypass, op, name, l, got, want,
								h, m, ins, byp, dead, fh, fm, fins, fbyp, fdead,
								paged.Occupancy(), flat.Occupancy())
						}
					}
					if !paged.Audit.Ok() {
						t.Fatalf("%d sets x %d ways, %v, bypass %v: audit violations %v",
							sets, ways, repl, bypass, paged.Audit.Violations())
					}
				}
			}
		}
	}
}
