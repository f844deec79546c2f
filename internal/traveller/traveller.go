// Package traveller implements the per-unit half of the Traveller Cache
// (paper §4): the set-associative DRAM cache region with SRAM tags, random
// replacement, probabilistic insertion bypass, and bulk invalidation at
// timestamp boundaries. Which lines may be cached at which unit is decided
// by the camp-location mapping in internal/core; this package only manages
// one unit's cache state.
package traveller

import (
	"fmt"
	"math/bits"

	"abndp/internal/check"
	"abndp/internal/config"
	"abndp/internal/mem"
)

// pageSets is the number of consecutive sets in one tag page. A cache keeps
// its tags in a directory of pages allocated on the first fill into them,
// so building a cache costs one pointer per page rather than sets x ways
// zeroed tags, and a run pays only for the part of the slice it touches.
const pageSets = 64

// page holds the tags of pageSets consecutive sets (all of them when the
// cache has fewer). Ways are only ever invalidated in bulk, and Insert
// always fills the lowest invalid way, so a set's valid ways are always the
// prefix [0, fill): the fill count is the set's whole validity state.
type page struct {
	lines []mem.Line      // [set][way] within the page
	lru   []int8          // per-way recency rank (0 = MRU), only under LRU
	fill  [pageSets]uint8 // valid ways per set (ways <= config.MaxCacheWays)
	used  int             // valid lines in the page; > 0 iff listed in Cache.live
}

// find returns the way of set i that holds l, or -1. A nil page (never
// filled) holds nothing.
func (p *page) find(i, ways int, l mem.Line) int {
	if p == nil {
		return -1
	}
	set := p.lines[i*ways : i*ways+int(p.fill[i])]
	for w, x := range set {
		if x == l {
			return w
		}
	}
	return -1
}

// Cache is the DRAM cache of one NDP unit. Tags live in SRAM (checked in a
// couple of cycles); data lives in the reserved DRAM cache region (accessed
// through the unit's normal DRAM channel).
type Cache struct {
	ways      int
	sets      int
	setMask   uint64
	pageShift uint    // set index >> pageShift is its page in the directory
	pageMask  int     // set index & pageMask is its offset within the page
	pages     []*page // directory; an entry stays nil until its first fill
	live      []*page // pages holding valid lines, reset by InvalidateAll

	bypassProb float64
	useLRU     bool
	disabled   bool   // set when the owning unit dies; probes miss, inserts no-op
	rng        uint64 // splitmix64 state for replacement + bypass decisions

	hits, misses, inserts, bypasses int64
	deadProbes                      int64 // probes arriving after Disable

	// Audit, when non-nil, validates the touched set after every tag
	// update: no duplicate resident line, and under LRU the recency ranks
	// of the valid ways form exactly {0..v-1}. One nil check per
	// probe/insert when off.
	Audit *check.Checker
}

// New builds the cache for one unit from the system configuration. seed
// decorrelates the random replacement streams of different units. No tag
// storage is allocated until the first Insert into each page.
func New(cfg *config.Config, seed uint64) *Cache {
	bytes := cfg.CacheBytes()
	ways := cfg.CacheWays
	sets := int(bytes) / mem.LineSize / ways
	if sets < 1 {
		sets = 1
	}
	// Power-of-two sets so the set index is a bit slice of the line
	// address, as in the paper's metadata scheme.
	sets = 1 << (bits.Len(uint(sets)) - 1)
	per := min(sets, pageSets)
	return &Cache{
		ways:       ways,
		sets:       sets,
		setMask:    uint64(sets - 1),
		pageShift:  uint(bits.TrailingZeros(uint(per))),
		pageMask:   per - 1,
		pages:      make([]*page, sets/per),
		bypassProb: cfg.BypassProb,
		useLRU:     cfg.Replacement == config.ReplaceLRU,
		rng:        seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
	}
}

// Sets returns the number of cache sets in this unit's cache.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Lines returns the total line capacity.
func (c *Cache) Lines() int { return c.sets * c.ways }

func (c *Cache) next() uint64 {
	c.rng += 0x9e3779b97f4a7c15
	x := c.rng
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// locate returns line l's set index, the page holding that set (nil if the
// page was never filled), and the set's offset within the page.
func (c *Cache) locate(l mem.Line) (s int, p *page, i int) {
	s = int(uint64(l) & c.setMask)
	return s, c.pages[s>>c.pageShift], s & c.pageMask
}

// Probe checks the SRAM tags for line l, recording a hit or miss. Under
// LRU replacement a hit refreshes the line's recency.
//
// A probe of a disabled (killed-unit) cache is not a miss: the cache is
// gone, not cold. Counting those probes as misses skewed post-fault hit
// rates, so they are tallied separately as dead probes (see Stats).
func (c *Cache) Probe(l mem.Line) bool {
	if c.disabled {
		c.deadProbes++
		return false
	}
	s, p, i := c.locate(l)
	w := p.find(i, c.ways, l)
	if w < 0 {
		c.misses++
		return false
	}
	c.hits++
	if c.useLRU {
		base := i * c.ways
		promote(p.lru[base:base+int(p.fill[i])], w, p.lru[base+w])
	}
	if c.Audit != nil {
		c.auditSet(s)
	}
	return true
}

// promote makes way w the most-recently-used of a set, given the recency
// ranks of its valid ways: every way younger than rank old ages by one.
// Hits pass the way's own rank; insertions pass ways-1 (the new line
// replaces the oldest, or takes a way whose stale rank means nothing).
func promote(ranks []int8, w int, old int8) {
	for i, r := range ranks {
		if r < old {
			ranks[i]++
		}
	}
	ranks[w] = 0
}

// Contains reports residency without affecting statistics.
func (c *Cache) Contains(l mem.Line) bool {
	_, p, i := c.locate(l)
	return p.find(i, c.ways, l) >= 0
}

// Insert tries to cache line l after a miss, applying the probabilistic
// bypass filter (paper §4.4: each block bypasses the cache with probability
// BypassProb, so only lines with real reuse settle in after a few tries).
// It reports whether the line was actually inserted. Victim selection is
// random; invalid ways are filled first.
func (c *Cache) Insert(l mem.Line) bool {
	if c.disabled {
		return false
	}
	s, p, i := c.locate(l)
	if p.find(i, c.ways, l) >= 0 {
		return false
	}
	if c.bypassProb > 0 {
		// Top 53 bits as a uniform float in [0, 1).
		if float64(c.next()>>11)/float64(1<<53) < c.bypassProb {
			c.bypasses++
			return false
		}
	}
	if p == nil {
		p = c.newPage(s)
	}
	base := i * c.ways
	way := int(p.fill[i])
	if way < c.ways {
		p.fill[i]++
		if p.used == 0 {
			c.live = append(c.live, p)
		}
		p.used++
	} else {
		way = -1
		if c.useLRU {
			for w := 0; w < c.ways; w++ {
				if int(p.lru[base+w]) == c.ways-1 {
					way = w
					break
				}
			}
		}
		if way < 0 {
			way = int(c.next() % uint64(c.ways))
		}
	}
	p.lines[base+way] = l
	if c.useLRU {
		promote(p.lru[base:base+int(p.fill[i])], way, int8(c.ways-1))
	}
	c.inserts++
	if c.Audit != nil {
		c.auditSet(s)
	}
	return true
}

// newPage allocates the directory page that holds set s.
func (c *Cache) newPage(s int) *page {
	n := (c.pageMask + 1) * c.ways
	p := &page{lines: make([]mem.Line, n)}
	if c.useLRU {
		p.lru = make([]int8, n)
	}
	c.pages[s>>c.pageShift] = p
	return p
}

// auditSet validates the invariants of set s after a tag update.
// Violations carry cycle -1: the cache does not track simulation time.
func (c *Cache) auditSet(s int) {
	c.Audit.Tick()
	p, i := c.pages[s>>c.pageShift], s&c.pageMask
	base, valid := i*c.ways, int(p.fill[i])
	lines := p.lines[base : base+valid]
	for w := range lines {
		for x := w + 1; x < valid; x++ {
			if lines[x] == lines[w] {
				c.Audit.Violationf("traveller.dup", -1,
					"set %d holds line %d in ways %d and %d", s, lines[w], w, x)
				return
			}
		}
	}
	if !c.useLRU {
		return
	}
	// Valid ways' recency ranks must be exactly the permutation prefix
	// {0..valid-1}; a corrupt rank (e.g. from an int8 overflow) breaks this.
	var seen [2]uint64 // rank bitset; ways <= config.MaxCacheWays = 127
	for w, r8 := range p.lru[base : base+valid] {
		r := int(r8)
		if r < 0 || r >= c.ways {
			c.Audit.Violationf("traveller.lru.range", -1,
				"set %d way %d recency rank %d outside [0,%d)", s, w, r, c.ways)
			return
		}
		if seen[r>>6]&(1<<uint(r&63)) != 0 {
			c.Audit.Violationf("traveller.lru.perm", -1,
				"set %d has duplicate recency rank %d among valid ways", s, r)
			return
		}
		seen[r>>6] |= 1 << uint(r&63)
	}
	for r := 0; r < valid; r++ {
		if seen[r>>6]&(1<<uint(r&63)) == 0 {
			c.Audit.Violationf("traveller.lru.prefix", -1,
				"set %d valid ranks are not {0..%d}", s, valid-1)
			return
		}
	}
}

// InvalidateAll clears every tag — the bulk invalidation at the end of each
// timestamp. Because the cache only ever holds read-only primary data, no
// writeback is needed. Zeroing the fill counts of the pages that hold valid
// lines is the whole job (the hardware analogue of a flash-clear valid
// column), so it costs O(touched pages); the pages stay allocated for the
// next timestamp, and the stale tags and ranks they keep are never read.
func (c *Cache) InvalidateAll() {
	for _, p := range c.live {
		p.fill = [pageSets]uint8{}
		p.used = 0
	}
	c.live = c.live[:0]
}

// Disable invalidates the cache and makes it permanently inert: every
// later Probe misses and Insert refuses, without touching the RNG stream.
// The fault layer calls this when the owning unit dies — its camp slice is
// gone, but remote units may still probe it before learning that.
func (c *Cache) Disable() {
	c.disabled = true
	c.InvalidateAll()
}

// Disabled reports whether Disable was called.
func (c *Cache) Disabled() bool { return c.disabled }

// Occupancy returns the number of valid lines (for tests and debugging).
func (c *Cache) Occupancy() int {
	n := 0
	for _, p := range c.live {
		n += p.used
	}
	return n
}

// Stats returns cumulative probe hits, probe misses, insertions, bypass
// decisions, and probes that arrived after the cache was disabled by a
// unit failure (deadProbes — deliberately not part of misses, so post-fault
// hit rates describe the cache while it existed).
func (c *Cache) Stats() (hits, misses, inserts, bypasses, deadProbes int64) {
	return c.hits, c.misses, c.inserts, c.bypasses, c.deadProbes
}

// TagBits returns the per-entry SRAM tag width for a system with the given
// total line-address width, reproducing the §4.3 arithmetic: the camp
// restriction removes the in-group unit-ID bits from the tag.
func TagBits(totalBytes uint64, sets, unitsPerGroup int) int {
	addrBits := bits.Len64(totalBytes - 1)
	setBits := bits.Len(uint(sets - 1))
	groupBits := bits.Len(uint(unitsPerGroup - 1))
	tag := addrBits - mem.LineShift - setBits - groupBits
	if tag < 0 {
		tag = 0
	}
	return tag
}

// String summarizes the cache geometry.
func (c *Cache) String() string {
	return fmt.Sprintf("traveller{%d sets x %d ways, %d KiB}",
		c.sets, c.ways, c.sets*c.ways*mem.LineSize/1024)
}
