package cache

import (
	"runtime"
	"testing"
	"testing/quick"

	"abndp/internal/mem"
)

// access is the L1 half of a line fetch: probe, and fill the line on a miss.
func access(c *L1, l mem.Line) bool {
	if c.Probe(l) {
		return true
	}
	c.Fill(l)
	return false
}

func TestL1Geometry(t *testing.T) {
	c := NewL1(64<<10, 4) // 64 kB, 4-way: 256 sets
	if c.Sets() != 256 || c.Ways() != 4 {
		t.Fatalf("geometry = %d sets x %d ways, want 256x4", c.Sets(), c.Ways())
	}
}

func TestL1HitAfterMiss(t *testing.T) {
	c := NewL1(4096, 2)
	if access(c, 7) {
		t.Fatal("first access should miss")
	}
	if !access(c, 7) {
		t.Fatal("second access should hit")
	}
}

func TestL1LRUEviction(t *testing.T) {
	c := NewL1(2*mem.LineSize, 2) // 1 set, 2 ways
	sets := uint64(c.Sets())
	a, b, d := mem.Line(0), mem.Line(sets), mem.Line(2*sets) // same set
	access(c, a)
	access(c, b)
	access(c, a) // promote a to MRU
	access(c, d) // must evict b (LRU)
	if !c.Contains(a) {
		t.Fatal("a should survive (MRU)")
	}
	if c.Contains(b) {
		t.Fatal("b should have been evicted (LRU)")
	}
	if !c.Contains(d) {
		t.Fatal("d should be resident")
	}
}

func TestL1Invalidate(t *testing.T) {
	c := NewL1(4096, 4)
	for i := mem.Line(0); i < 16; i++ {
		access(c, i)
	}
	c.Invalidate()
	for i := mem.Line(0); i < 16; i++ {
		if c.Contains(i) {
			t.Fatalf("line %d survived Invalidate", i)
		}
	}
}

// Property: a set never holds duplicates and never exceeds its ways.
func TestL1SetInvariant(t *testing.T) {
	f := func(accesses []uint16) bool {
		c := NewL1(1024, 2)
		for _, a := range accesses {
			access(c, mem.Line(a))
		}
		for pi, p := range c.pages {
			if p == nil {
				continue
			}
			for i := 0; i <= c.pageMask; i++ {
				if int(p.fill[i]) > c.Ways() {
					return false // overfull set
				}
				seen := map[mem.Line]bool{}
				for _, l := range p.lines[i*c.ways : i*c.ways+int(p.fill[i])] {
					if int(uint64(l)&c.setMask) != pi<<c.pageShift|i {
						return false // line in wrong set
					}
					if seen[l] {
						return false // duplicate
					}
					seen[l] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchBufferFIFO(t *testing.T) {
	b := NewPrefetchBuffer(3 * mem.LineSize)
	b.Insert(1, 10)
	b.Insert(2, 20)
	b.Insert(3, 30)
	b.Insert(4, 40) // evicts 1
	if _, ok := b.Lookup(1); ok {
		t.Fatal("line 1 should have been evicted FIFO")
	}
	for _, l := range []mem.Line{2, 3, 4} {
		if _, ok := b.Lookup(l); !ok {
			t.Fatalf("line %d missing", l)
		}
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
}

func TestPrefetchBufferInvalidate(t *testing.T) {
	b := NewPrefetchBuffer(4 * mem.LineSize)
	b.Insert(1, 1)
	b.Insert(2, 2)
	b.Invalidate()
	if b.Len() != 0 {
		t.Fatal("Invalidate left entries")
	}
	if _, ok := b.Lookup(1); ok {
		t.Fatal("Lookup found stale entry")
	}
}

// Property: the buffer never exceeds its capacity, a just-inserted line is
// resident, and the resident slots hold no line twice. Lines are inserted
// only after their Lookup missed, as the line-fetch path does.
func TestPrefetchBufferCapacityInvariant(t *testing.T) {
	f := func(lines []uint8) bool {
		b := NewPrefetchBuffer(4 * mem.LineSize)
		for i, l := range lines {
			if _, ok := b.Lookup(mem.Line(l)); ok {
				continue
			}
			b.Insert(mem.Line(l), int64(i))
			if b.Len() > b.Capacity() {
				return false
			}
			if _, ok := b.Lookup(mem.Line(l)); !ok {
				return false
			}
		}
		seen := map[mem.Line]bool{}
		for _, l := range b.lines[:b.n] {
			if seen[l] {
				return false
			}
			seen[l] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Once full, the buffer recycles its slots: inserting new lines allocates
// nothing, however many the run prefetches.
func TestPrefetchBufferInsertAllocs(t *testing.T) {
	b := NewPrefetchBuffer(4 << 10)
	next := mem.Line(0)
	for ; int(next) < b.Capacity(); next++ {
		b.Insert(next, int64(next))
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			b.Insert(next, int64(next))
			next++
		}
	})
	if allocs != 0 {
		t.Fatalf("1000 inserts into a full buffer allocated %v times, want 0", allocs)
	}
}

// A ring allocates its slots on use: none at construction, firstSlots on
// the first Insert, and its whole capacity when one more line arrives with
// those all resident. Growth keeps every resident line and its ready time,
// and a full ring never allocates again.
func TestRingGrowsOnUse(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// mallocs counts the heap allocations of one call of f.
	mallocs := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs)
	}
	b := NewPrefetchBuffer(4 << 10)
	if len(b.lines) != 0 || b.Capacity() != 64 {
		t.Fatalf("new buffer holds %d slots of capacity %d, want 0 of 64", len(b.lines), b.Capacity())
	}
	for l := mem.Line(0); l < 64; l++ {
		n := mallocs(func() { b.Insert(l, int64(100+l)) })
		want := 0.0
		if l == 0 || l == firstSlots {
			want = 2 // the line and ready-time slices
		}
		if n != want {
			t.Fatalf("insert of line %d allocated %v times, want %v", l, n, want)
		}
		slots := 64
		if l < firstSlots {
			slots = firstSlots
		}
		if len(b.lines) != slots {
			t.Fatalf("after %d inserts the ring has %d slots, want %d", l+1, len(b.lines), slots)
		}
		for r := mem.Line(0); r <= l; r++ {
			if at, ok := b.Lookup(r); !ok || at != int64(100+r) {
				t.Fatalf("after %d inserts line %d reads %d,%v, want %d,true", l+1, r, at, ok, 100+r)
			}
		}
	}
	b.Invalidate()
	if n := mallocs(func() { b.Insert(1000, 1) }); n != 0 || len(b.lines) != 64 {
		t.Fatalf("insert after Invalidate allocated %v times with %d slots, want 0 with 64", n, len(b.lines))
	}
	small := NewPrefetchBuffer(3 * mem.LineSize)
	small.Insert(1, 1)
	if len(small.lines) != 3 {
		t.Fatalf("a 3-line ring allocated %d slots on its first insert, want 3", len(small.lines))
	}
}
