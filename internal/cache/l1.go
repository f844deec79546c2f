// Package cache implements the per-core SRAM structures of an NDP unit:
// a set-associative LRU L1 cache and the FIFO prefetch buffer that task
// hints prefetch into (paper §3.2, Table 1).
package cache

import (
	"math/bits"

	"abndp/internal/mem"
)

// pageSets is the number of consecutive sets in one L1 page. Pages are
// allocated on the first fill into them, as in the Traveller Cache's tag
// directory, so an L1 costs only the sets a run touches.
const pageSets = 64

// l1Page holds pageSets consecutive sets (all of them when the cache has
// fewer), each ordered MRU-first. Valid ways only ever enter at the MRU
// end and are only cleared in bulk, so a set's valid ways are always the
// prefix [0, fill).
type l1Page struct {
	lines []mem.Line      // [set][way] within the page
	fill  [pageSets]uint8 // valid ways per set (ways <= config.MaxCacheWays)
	live  bool            // listed in L1.live
}

// L1 is a set-associative cache with LRU replacement, tracking line
// presence only (the simulator never stores data values in caches).
type L1 struct {
	ways      int
	setMask   uint64
	pageShift uint      // set index >> pageShift is its page in the directory
	pageMask  int       // set index & pageMask is its offset within the page
	pages     []*l1Page // directory; an entry stays nil until its first fill
	live      []*l1Page // pages holding valid lines, reset by Invalidate

	hits, misses int64
}

// NewL1 builds a cache of the given capacity in bytes and associativity.
// The set count is rounded down to a power of two. No line storage is
// allocated until the first fill into each page.
func NewL1(bytes, ways int) *L1 {
	if ways <= 0 {
		ways = 1
	}
	sets := bytes / mem.LineSize / ways
	if sets < 1 {
		sets = 1
	}
	sets = 1 << (bits.Len(uint(sets)) - 1)
	per := min(sets, pageSets)
	return &L1{
		ways:      ways,
		setMask:   uint64(sets - 1),
		pageShift: uint(bits.TrailingZeros(uint(per))),
		pageMask:  per - 1,
		pages:     make([]*l1Page, sets/per),
	}
}

// Sets returns the number of cache sets.
func (c *L1) Sets() int { return int(c.setMask) + 1 }

// Ways returns the associativity.
func (c *L1) Ways() int { return c.ways }

// Access looks up line l, returning true on a hit. On a miss the line is
// inserted, evicting the LRU way of its set. The hit way is promoted to MRU.
func (c *L1) Access(l mem.Line) bool {
	s := int(uint64(l) & c.setMask)
	p, i := c.pages[s>>c.pageShift], s&c.pageMask
	if p == nil {
		p = &l1Page{lines: make([]mem.Line, (c.pageMask+1)*c.ways)}
		c.pages[s>>c.pageShift] = p
	}
	set := p.lines[i*c.ways : (i+1)*c.ways]
	n := int(p.fill[i])
	for w, x := range set[:n] {
		if x == l {
			// Promote to MRU by shifting earlier ways down.
			copy(set[1:w+1], set[:w])
			set[0] = l
			c.hits++
			return true
		}
	}
	// Miss: insert at MRU, dropping the LRU way once the set is full.
	if n < c.ways {
		n++
		p.fill[i] = uint8(n)
		if !p.live {
			p.live = true
			c.live = append(c.live, p)
		}
	}
	copy(set[1:n], set[:n-1])
	set[0] = l
	c.misses++
	return false
}

// Contains reports whether line l is cached, without touching LRU state.
func (c *L1) Contains(l mem.Line) bool {
	s := int(uint64(l) & c.setMask)
	p, i := c.pages[s>>c.pageShift], s&c.pageMask
	if p == nil {
		return false
	}
	for _, x := range p.lines[i*c.ways : i*c.ways+int(p.fill[i])] {
		if x == l {
			return true
		}
	}
	return false
}

// Invalidate clears the whole cache. It zeroes the fill counts of the
// pages holding valid lines, so it costs O(touched pages).
func (c *L1) Invalidate() {
	for _, p := range c.live {
		p.fill = [pageSets]uint8{}
		p.live = false
	}
	c.live = c.live[:0]
}

// Stats returns cumulative hit and miss counts.
func (c *L1) Stats() (hits, misses int64) { return c.hits, c.misses }
