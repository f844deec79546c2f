package mem

import (
	"testing"
	"testing/quick"

	"abndp/internal/topology"
)

func testSpace() *Space { return NewSpace(128, 512<<20) }

func TestLineMath(t *testing.T) {
	if LineOf(0) != 0 || LineOf(63) != 0 || LineOf(64) != 1 {
		t.Fatal("LineOf boundary math wrong")
	}
	if AddrOf(1) != 64 {
		t.Fatal("AddrOf wrong")
	}
}

func TestHomeOf(t *testing.T) {
	s := testSpace()
	if s.HomeOf(0) != 0 {
		t.Fatal("addr 0 should live on unit 0")
	}
	if s.HomeOf(Addr(512<<20)) != 1 {
		t.Fatal("first addr of second region should live on unit 1")
	}
	last := Addr(s.TotalBytes() - 1)
	if s.HomeOf(last) != 127 {
		t.Fatalf("last addr home = %d, want 127", s.HomeOf(last))
	}
}

func TestInterleavePlacement(t *testing.T) {
	s := testSpace()
	a := s.NewArray("v", 1000, 16, Interleave)
	for i := 0; i < a.Len(); i++ {
		if got, want := a.HomeOf(i), topology.UnitID(i%128); got != want {
			t.Fatalf("elem %d home = %d, want %d", i, got, want)
		}
	}
}

func TestBlockedPlacement(t *testing.T) {
	s := testSpace()
	a := s.NewArray("v", 1280, 16, Blocked)
	for i := 0; i < a.Len(); i++ {
		if got, want := a.HomeOf(i), topology.UnitID(i/10); got != want {
			t.Fatalf("elem %d home = %d, want %d", i, got, want)
		}
	}
}

func TestSmallElementsPackIntoLines(t *testing.T) {
	s := NewSpace(2, 1<<20)
	a := s.NewArray("v", 8, 16, Interleave)
	// Elements 0,2,4,6 are on unit 0 at consecutive 16 B slots: the first
	// four share one cacheline.
	l0 := a.LineOf(0)
	for _, i := range []int{2, 4, 6} {
		if a.LineOf(i) != l0 {
			t.Fatalf("elem %d line = %d, want %d (packing broken)", i, a.LineOf(i), l0)
		}
	}
}

func TestLargeElementSpansLines(t *testing.T) {
	s := NewSpace(2, 1<<20)
	a := s.NewArray("f", 4, 256, Interleave)
	lines := a.Lines(0)
	if len(lines) != 4 {
		t.Fatalf("256 B element spans %d lines, want 4", len(lines))
	}
	for i := 1; i < len(lines); i++ {
		if lines[i] != lines[i-1]+1 {
			t.Fatal("element lines must be consecutive")
		}
	}
}

func TestNewArrayOn(t *testing.T) {
	s := testSpace()
	a := s.NewArrayOn("local", 100, 8, 42)
	for i := 0; i < a.Len(); i++ {
		if a.HomeOf(i) != 42 {
			t.Fatalf("elem %d home = %d, want 42", i, a.HomeOf(i))
		}
	}
}

func TestAllocLinesOnAligns(t *testing.T) {
	s := testSpace()
	s.NewArrayOn("pad", 1, 10, 3) // leave cursor misaligned on unit 3
	l := s.AllocLinesOn(3, 2)
	if AddrOf(l)%LineSize != 0 {
		t.Fatal("AllocLinesOn returned unaligned line")
	}
	if s.HomeOfLine(l) != 3 {
		t.Fatalf("allocated line home = %d, want 3", s.HomeOfLine(l))
	}
}

func TestAppendLinesDedups(t *testing.T) {
	s := NewSpace(1, 1<<20)
	a := s.NewArray("v", 8, 16, Interleave)
	var lines []Line
	for i := 0; i < 4; i++ { // four 16 B elems in one line
		lines = a.AppendLines(lines, i)
	}
	if len(lines) != 1 {
		t.Fatalf("AppendLines kept %d entries, want 1", len(lines))
	}
}

func TestDistinctAddresses(t *testing.T) {
	s := testSpace()
	a := s.NewArray("a", 500, 16, Interleave)
	b := s.NewArray("b", 500, 16, Interleave)
	seen := map[Addr]bool{}
	for i := 0; i < 500; i++ {
		for _, ad := range []Addr{a.Addr(i), b.Addr(i)} {
			if seen[ad] {
				t.Fatalf("address %#x allocated twice", ad)
			}
			seen[ad] = true
		}
	}
}

// Property: HomeOf is consistent with the element's address region for any
// placement and size.
func TestHomeMatchesRegionProperty(t *testing.T) {
	s := testSpace()
	f := func(n uint16, es uint8, blocked bool) bool {
		ne := int(n%2048) + 1
		size := int(es%128) + 1
		p := Interleave
		if blocked {
			p = Blocked
		}
		a := s.NewArray("p", ne, size, p)
		for i := 0; i < ne; i++ {
			u := uint64(a.Addr(i)) / s.UnitBytes()
			if topology.UnitID(u) != a.HomeOf(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// SpanLines is what AppendLines adds to an empty list, including an
// element no larger than a line that straddles a line boundary.
func TestSpanLinesCountsAppendLines(t *testing.T) {
	s := NewSpace(4, 1<<20)
	for _, size := range []int{8, 16, 24, 48, 64, 100, 256} {
		a := s.NewArray("v", 37, size, Interleave)
		for i := 0; i < a.Len(); i++ {
			if got, want := a.SpanLines(i), len(a.AppendLines(nil, i)); got != want {
				t.Fatalf("%d B element %d: SpanLines %d, AppendLines added %d", size, i, got, want)
			}
		}
	}
	// Element 1 of a fresh unit's 48 B array occupies bytes 48-95.
	b := NewSpace(1, 1<<20).NewArrayOn("straddle", 2, 48, 0)
	if got := b.SpanLines(1); got != 2 {
		t.Fatalf("48 B element at byte 48 spans %d lines, want 2", got)
	}
}
