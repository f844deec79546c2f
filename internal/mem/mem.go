// Package mem models the physical address space of the NDP system and the
// placement of application primary data.
//
// The system has one DRAM region per NDP unit (512 MB by default); the home
// of a physical address is the unit whose region contains it. Applications
// allocate arrays whose elements are distributed across units — by default
// element-interleaved, which is the paper's baseline "evenly distribute all
// data elements among the NDP units".
package mem

import (
	"fmt"

	"abndp/internal/topology"
)

// LineSize is the cacheline size in bytes (64 B throughout the paper).
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// Addr is a physical byte address.
type Addr uint64

// Line is a cacheline address (Addr >> LineShift).
type Line uint64

// LineOf returns the cacheline containing a.
func LineOf(a Addr) Line { return Line(a >> LineShift) }

// AddrOf returns the first byte address of line l.
func AddrOf(l Line) Addr { return Addr(l << LineShift) }

// Space is the system physical address space: units * unitBytes bytes, with
// unit u owning [u*unitBytes, (u+1)*unitBytes).
type Space struct {
	units     int
	unitBytes uint64
	unitShift uint     // log2(unitBytes) when it is a power of two, else 0
	cursor    []uint64 // next free offset within each unit's region
}

// NewSpace creates an address space for the given number of units, each
// owning unitBytes of local DRAM.
func NewSpace(units int, unitBytes uint64) *Space {
	if units <= 0 || unitBytes == 0 || unitBytes%LineSize != 0 {
		panic(fmt.Sprintf("mem: invalid space (units=%d unitBytes=%d)", units, unitBytes))
	}
	s := &Space{
		units:     units,
		unitBytes: unitBytes,
		cursor:    make([]uint64, units),
	}
	// Home lookup happens on every line access; when the region size is a
	// power of two (every stock configuration) it is a shift, not a 64-bit
	// division.
	if unitBytes&(unitBytes-1) == 0 {
		for uint64(1)<<s.unitShift != unitBytes {
			s.unitShift++
		}
	}
	return s
}

// Units returns the number of per-unit DRAM regions.
func (s *Space) Units() int { return s.units }

// UnitBytes returns the DRAM capacity of one unit.
func (s *Space) UnitBytes() uint64 { return s.unitBytes }

// TotalBytes returns the total system memory capacity.
func (s *Space) TotalBytes() uint64 { return uint64(s.units) * s.unitBytes }

// HomeOf returns the unit whose local DRAM contains address a. It panics
// on an address outside the system's physical address space, which can only
// result from a simulator bug.
func (s *Space) HomeOf(a Addr) topology.UnitID {
	var u uint64
	if s.unitShift != 0 {
		u = uint64(a) >> s.unitShift
	} else {
		u = uint64(a) / s.unitBytes
	}
	if u >= uint64(s.units) {
		panic(fmt.Sprintf("mem: address %#x outside the %d-byte address space",
			uint64(a), s.TotalBytes()))
	}
	return topology.UnitID(u)
}

// HomeOfLine returns the unit whose local DRAM contains line l.
func (s *Space) HomeOfLine(l Line) topology.UnitID {
	return s.HomeOf(AddrOf(l))
}

// allocOn reserves size bytes in unit u's region and returns the address.
// It panics if the region is exhausted; workloads in this repository are
// sized well below capacity, so exhaustion is a programming error.
func (s *Space) allocOn(u topology.UnitID, size uint64) Addr {
	off := s.cursor[u]
	if off+size > s.unitBytes {
		panic(fmt.Sprintf("mem: unit %d DRAM exhausted (%d + %d > %d)",
			u, off, size, s.unitBytes))
	}
	s.cursor[u] = off + size
	return Addr(uint64(u)*s.unitBytes + off)
}

// AllocLinesOn reserves n whole cachelines on unit u and returns the first
// line. Used for unit-local scratch such as replicated read-only tables.
func (s *Space) AllocLinesOn(u topology.UnitID, n int) Line {
	// Align the cursor up to a line boundary first.
	if rem := s.cursor[u] % LineSize; rem != 0 {
		s.cursor[u] += LineSize - rem
	}
	return LineOf(s.allocOn(u, uint64(n)*LineSize))
}

// Placement selects how an Array's elements are distributed across units.
type Placement int

const (
	// Interleave places element i on unit i % units (the paper's
	// baseline even distribution).
	Interleave Placement = iota
	// Blocked places elements in contiguous equal-size blocks: element i
	// on unit i*units/n.
	Blocked
)

// Array is an application primary-data array with one address per element.
// Elements allocated consecutively on the same unit pack into shared
// cachelines when smaller than LineSize, exactly as a real allocator would.
type Array struct {
	Name     string
	ElemSize int
	addrs    []Addr
	space    *Space
}

// NewArray allocates an n-element array of elemSize-byte elements with the
// given placement.
func (s *Space) NewArray(name string, n, elemSize int, p Placement) *Array {
	if n < 0 || elemSize <= 0 {
		panic(fmt.Sprintf("mem: invalid array %q (n=%d elemSize=%d)", name, n, elemSize))
	}
	a := &Array{Name: name, ElemSize: elemSize, addrs: make([]Addr, n), space: s}
	for i := 0; i < n; i++ {
		var u topology.UnitID
		switch p {
		case Interleave:
			u = topology.UnitID(i % s.units)
		case Blocked:
			u = topology.UnitID(i * s.units / max(n, 1))
		default:
			panic("mem: unknown placement")
		}
		a.addrs[i] = s.allocOn(u, uint64(elemSize))
	}
	return a
}

// NewArrayOn allocates an n-element array entirely on one unit.
func (s *Space) NewArrayOn(name string, n, elemSize int, u topology.UnitID) *Array {
	a := &Array{Name: name, ElemSize: elemSize, addrs: make([]Addr, n), space: s}
	for i := 0; i < n; i++ {
		a.addrs[i] = s.allocOn(u, uint64(elemSize))
	}
	return a
}

// Len returns the number of elements.
func (a *Array) Len() int { return len(a.addrs) }

// Addr returns the address of element i.
func (a *Array) Addr(i int) Addr { return a.addrs[i] }

// LineOf returns the cacheline holding the first byte of element i.
func (a *Array) LineOf(i int) Line { return LineOf(a.addrs[i]) }

// HomeOf returns the home unit of element i.
func (a *Array) HomeOf(i int) topology.UnitID { return a.space.HomeOf(a.addrs[i]) }

// Lines returns all cachelines spanned by element i (1 for elements up to
// 64 B, more for larger elements such as feature vectors).
func (a *Array) Lines(i int) []Line {
	return a.AppendLines(make([]Line, 0, a.SpanLines(i)), i)
}

// SpanLines returns the number of cachelines element i spans: the most
// lines AppendLines adds for it. An element no larger than a line spans
// two when it straddles a line boundary.
func (a *Array) SpanLines(i int) int {
	return int(LineOf(a.addrs[i]+Addr(a.ElemSize)-1)-LineOf(a.addrs[i])) + 1
}

// AppendLines appends the cachelines of element i to dst, deduplicating
// against the current last entry (cheap dedup for sequential accesses).
func (a *Array) AppendLines(dst []Line, i int) []Line {
	first := LineOf(a.addrs[i])
	last := LineOf(a.addrs[i] + Addr(a.ElemSize) - 1)
	for l := first; l <= last; l++ {
		if n := len(dst); n > 0 && dst[n-1] == l {
			continue
		}
		dst = append(dst, l)
	}
	return dst
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
