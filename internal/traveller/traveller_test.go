package traveller

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"abndp/internal/check"
	"abndp/internal/config"
	"abndp/internal/mem"
)

func newCache(bypass float64) *Cache {
	cfg := config.Default()
	cfg.BypassProb = bypass
	cfg.CacheEnabled = true
	return New(&cfg, 1)
}

func TestGeometryMatchesPaper(t *testing.T) {
	c := newCache(0)
	// 512 MB / 64 = 8 MB cache, 64 B lines, 4-way: 32768 sets (§4.3).
	if c.Sets() != 32768 {
		t.Fatalf("Sets = %d, want 32768", c.Sets())
	}
	if c.Ways() != 4 {
		t.Fatalf("Ways = %d, want 4", c.Ways())
	}
	if c.Lines() != 131072 {
		t.Fatalf("Lines = %d, want 128k", c.Lines())
	}
}

func TestTagBits(t *testing.T) {
	// §4.3: 64 GB system, 32768 sets, 32 units/group -> 10-bit tags
	// (15 bits without the camp restriction).
	if got := TagBits(64<<30, 32768, 32); got != 10 {
		t.Fatalf("TagBits = %d, want 10", got)
	}
	if got := TagBits(64<<30, 32768, 1); got != 15 {
		t.Fatalf("TagBits without camp restriction = %d, want 15", got)
	}
}

func TestProbeInsertProbe(t *testing.T) {
	c := newCache(0)
	l := mem.Line(0xABCDE)
	if c.Probe(l) {
		t.Fatal("empty cache should miss")
	}
	if !c.Insert(l) {
		t.Fatal("insert with no bypass should succeed")
	}
	if !c.Probe(l) {
		t.Fatal("probe after insert should hit")
	}
	h, m, ins, byp, dead := c.Stats()
	if h != 1 || m != 1 || ins != 1 || byp != 0 || dead != 0 {
		t.Fatalf("stats = %d/%d/%d/%d/%d", h, m, ins, byp, dead)
	}
}

func TestInsertIsIdempotent(t *testing.T) {
	c := newCache(0)
	l := mem.Line(99)
	c.Insert(l)
	if c.Insert(l) {
		t.Fatal("re-inserting a resident line should be a no-op")
	}
	if c.Occupancy() != 1 {
		t.Fatalf("occupancy = %d, want 1", c.Occupancy())
	}
}

func TestEvictionStaysWithinSet(t *testing.T) {
	c := newCache(0)
	sets := uint64(c.Sets())
	// Fill one set beyond capacity.
	for i := 0; i < c.Ways()+3; i++ {
		c.Insert(mem.Line(uint64(i)*sets + 5))
	}
	// Occupancy of that set can never exceed ways.
	count := 0
	for i := 0; i < c.Ways()+3; i++ {
		if c.Contains(mem.Line(uint64(i)*sets + 5)) {
			count++
		}
	}
	if count != c.Ways() {
		t.Fatalf("set holds %d lines, want %d", count, c.Ways())
	}
	if c.Occupancy() != c.Ways() {
		t.Fatalf("occupancy = %d, want %d", c.Occupancy(), c.Ways())
	}
}

func TestBulkInvalidation(t *testing.T) {
	c := newCache(0)
	for i := mem.Line(0); i < 100; i++ {
		c.Insert(i)
	}
	c.InvalidateAll()
	if c.Occupancy() != 0 {
		t.Fatalf("occupancy after InvalidateAll = %d", c.Occupancy())
	}
}

func TestBypassRate(t *testing.T) {
	c := newCache(0.4)
	const n = 20000
	for i := 0; i < n; i++ {
		// Distinct sets so insertion success isn't limited by conflicts.
		c.Insert(mem.Line(i))
	}
	_, _, ins, byp, _ := c.Stats()
	rate := float64(byp) / float64(ins+byp)
	if rate < 0.35 || rate > 0.45 {
		t.Fatalf("bypass rate = %.3f, want ~0.40", rate)
	}
}

func TestHotLineSettlesDespiteBypass(t *testing.T) {
	// §4.4: frequently accessed data is eventually cached after a few
	// trials even with a 40% bypass probability.
	c := newCache(0.4)
	l := mem.Line(7)
	inserted := false
	for try := 0; try < 50 && !inserted; try++ {
		if c.Probe(l) {
			inserted = true
			break
		}
		c.Insert(l)
		inserted = c.Contains(l)
	}
	if !inserted {
		t.Fatal("hot line never settled into the cache in 50 tries")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []bool {
		c := newCache(0.4)
		var out []bool
		for i := 0; i < 500; i++ {
			out = append(out, c.Insert(mem.Line(i*13)))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("insert decision %d differs between identical runs", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := config.Default()
	cfg.BypassProb = 0.4
	c1, c2 := New(&cfg, 1), New(&cfg, 2)
	same := true
	for i := 0; i < 200 && same; i++ {
		if c1.Insert(mem.Line(i)) != c2.Insert(mem.Line(i)) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical bypass streams")
	}
}

// Property: occupancy never exceeds capacity; no line is duplicated.
func TestOccupancyInvariant(t *testing.T) {
	f := func(raw []uint16) bool {
		cfg := config.Default()
		cfg.UnitBytes = 1 << 20 // small cache: 16 KiB, 64 sets
		cfg.BypassProb = 0.25
		c := New(&cfg, 3)
		for _, r := range raw {
			c.Insert(mem.Line(r))
		}
		if c.Occupancy() > c.Lines() {
			return false
		}
		seen := map[mem.Line]int{}
		for pi, p := range c.pages {
			if p == nil {
				continue
			}
			for i := 0; i <= c.pageMask; i++ {
				set := pi<<c.pageShift | i
				for _, l := range p.lines[i*c.ways : i*c.ways+int(p.fill[i])] {
					seen[l]++
					if int(uint64(l)&c.setMask) != set {
						return false
					}
				}
			}
		}
		for _, n := range seen {
			if n > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func newLRUCache() *Cache {
	cfg := config.Default()
	cfg.BypassProb = 0
	cfg.Replacement = config.ReplaceLRU
	cfg.UnitBytes = 1 << 20 // 16 KiB cache, small sets
	return New(&cfg, 1)
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRUCache()
	sets := uint64(c.Sets())
	// Fill one set: a, b, c2, d (4 ways).
	mk := func(i int) mem.Line { return mem.Line(uint64(i)*sets + 9) }
	for i := 0; i < 4; i++ {
		c.Insert(mk(i))
	}
	// Touch a so it becomes MRU; then insert a fifth line.
	if !c.Probe(mk(0)) {
		t.Fatal("expected hit on resident line")
	}
	c.Insert(mk(4))
	if !c.Contains(mk(0)) {
		t.Fatal("recently used line was evicted under LRU")
	}
	if c.Contains(mk(1)) {
		t.Fatal("least recently used line survived under LRU")
	}
}

// Regression: a disabled (killed-unit) cache used to count every probe as
// a miss, skewing post-fault hit rates; dead probes now have their own
// counter and leave misses untouched.
func TestDisabledProbesAreNotMisses(t *testing.T) {
	c := newCache(0)
	l := mem.Line(42)
	c.Insert(l)
	c.Probe(l)            // hit
	c.Probe(mem.Line(43)) // miss
	c.Disable()
	for i := 0; i < 10; i++ {
		if c.Probe(l) {
			t.Fatal("disabled cache returned a hit")
		}
	}
	h, m, _, _, dead := c.Stats()
	if h != 1 || m != 1 {
		t.Fatalf("hits/misses = %d/%d after disable, want 1/1 (dead probes leaked into misses)", h, m)
	}
	if dead != 10 {
		t.Fatalf("deadProbes = %d, want 10", dead)
	}
	if c.Insert(mem.Line(44)) {
		t.Fatal("disabled cache accepted an insert")
	}
}

// Property: under LRU replacement and an installed audit, arbitrary
// probe/insert interleavings keep every set's valid recency ranks a
// permutation prefix {0..v-1} (auditSet reports otherwise).
func TestLRUAuditCleanUnderRandomTraffic(t *testing.T) {
	f := func(raw []uint16, probes []uint16) bool {
		c := newLRUCache()
		c.Audit = check.New()
		for _, r := range raw {
			c.Insert(mem.Line(r))
		}
		for _, p := range probes {
			c.Probe(mem.Line(p))
		}
		if len(raw) == 0 {
			return c.Audit.Ok()
		}
		return c.Audit.Ok() && c.Audit.Checks() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The audit actually detects corruption: clobber a rank and re-touch the
// set. The set sits past the first tag page, so the violation must name
// its cache-wide index, not its offset within the page.
func TestLRUAuditDetectsCorruptRank(t *testing.T) {
	cfg := config.Default()
	cfg.BypassProb = 0
	cfg.Replacement = config.ReplaceLRU
	cfg.UnitBytes = 1 << 22 // 64 KiB cache: 256 sets, 4 tag pages
	c := New(&cfg, 1)
	c.Audit = check.New()
	const set = 2*pageSets + 3
	sets := uint64(c.Sets())
	mk := func(i int) mem.Line { return mem.Line(uint64(i)*sets + set) }
	for i := 0; i < c.Ways(); i++ {
		c.Insert(mk(i))
	}
	if !c.Audit.Ok() {
		t.Fatalf("clean fills flagged: %v", c.Audit.Violations())
	}
	_, p, i := c.locate(mk(0))
	base := i * c.ways
	p.lru[base] = p.lru[base+1] // duplicate rank = invalid permutation
	c.Probe(mk(2))              // hit re-audits the set
	vs := c.Audit.Violations()
	if len(vs) == 0 {
		t.Fatal("audit missed a corrupted LRU rank")
	}
	if want := fmt.Sprintf("set %d ", set); !strings.Contains(vs[0].Detail, want) {
		t.Fatalf("violation %q does not name %q", vs[0].Detail, want)
	}
}

func TestLRUAndRandomBothBounded(t *testing.T) {
	for _, repl := range []config.Replacement{config.ReplaceRandom, config.ReplaceLRU} {
		cfg := config.Default()
		cfg.BypassProb = 0
		cfg.Replacement = repl
		cfg.UnitBytes = 1 << 20
		c := New(&cfg, 2)
		for i := 0; i < 5000; i++ {
			c.Insert(mem.Line(i * 7))
		}
		if c.Occupancy() > c.Lines() {
			t.Fatalf("%v: occupancy %d exceeds capacity %d", repl, c.Occupancy(), c.Lines())
		}
	}
}
