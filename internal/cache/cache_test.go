package cache

import (
	"testing"
	"testing/quick"

	"abndp/internal/mem"
)

func TestL1Geometry(t *testing.T) {
	c := NewL1(64<<10, 4) // 64 kB, 4-way: 256 sets
	if c.Sets() != 256 || c.Ways() != 4 {
		t.Fatalf("geometry = %d sets x %d ways, want 256x4", c.Sets(), c.Ways())
	}
}

func TestL1HitAfterMiss(t *testing.T) {
	c := NewL1(4096, 2)
	if c.Access(7) {
		t.Fatal("first access should miss")
	}
	if !c.Access(7) {
		t.Fatal("second access should hit")
	}
	h, m := c.Stats()
	if h != 1 || m != 1 {
		t.Fatalf("stats = %d/%d, want 1/1", h, m)
	}
}

func TestL1LRUEviction(t *testing.T) {
	c := NewL1(2*mem.LineSize, 2) // 1 set, 2 ways
	sets := uint64(c.Sets())
	a, b, d := mem.Line(0), mem.Line(sets), mem.Line(2*sets) // same set
	c.Access(a)
	c.Access(b)
	c.Access(a) // promote a to MRU
	c.Access(d) // must evict b (LRU)
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
		c.Access(i)
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
			c.Access(mem.Line(a))
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

func TestPrefetchBufferReinsertKeepsEarliest(t *testing.T) {
	b := NewPrefetchBuffer(4 * mem.LineSize)
	b.Insert(5, 100)
	b.Insert(5, 50)
	if r, _ := b.Lookup(5); r != 50 {
		t.Fatalf("ready = %d, want 50 (earlier completion wins)", r)
	}
	b.Insert(5, 200)
	if r, _ := b.Lookup(5); r != 50 {
		t.Fatalf("ready = %d, want 50 (later completion ignored)", r)
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (no duplicate entries)", b.Len())
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

// Property: buffer never exceeds capacity and Lookup agrees with presence.
func TestPrefetchBufferCapacityInvariant(t *testing.T) {
	f := func(lines []uint8) bool {
		b := NewPrefetchBuffer(4 * mem.LineSize)
		for i, l := range lines {
			b.Insert(mem.Line(l), int64(i))
			if b.Len() > b.Capacity() {
				return false
			}
		}
		return len(b.ready) == len(b.order)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
