package cache

import "abndp/internal/mem"

// PrefetchBuffer models the per-unit SRAM prefetch buffer (Table 1: 4 kB,
// 64 B blocks, FIFO). Each entry records when the prefetched line's
// transfer completes, so the core can compute its residual stall. Hits in
// the buffer bypass the L1 caches (paper §3.2).
//
// The buffer is a ring of capacity slots allocated once. It fills slots
// 0, 1, ... in order after construction or Invalidate, and only once all
// of them are resident does a new line overwrite the oldest one at head,
// so the resident lines are always lines[:n]. Lookups scan them: at
// Table 1's 64 slots a hashed index is no faster beyond measurement noise
// and costs memory per unit (docs/PERF.md, "The line-fetch path").
type PrefetchBuffer struct {
	lines []mem.Line // slot -> resident line
	ready []int64    // slot -> completion cycle of its line's transfer
	head  int        // oldest slot once the ring is full, else 0
	n     int        // resident lines
}

// NewPrefetchBuffer builds a buffer holding bytes/64 lines (at least one).
func NewPrefetchBuffer(bytes int) *PrefetchBuffer {
	c := max(bytes/mem.LineSize, 1)
	return &PrefetchBuffer{
		lines: make([]mem.Line, c),
		ready: make([]int64, c),
	}
}

// Capacity returns the number of line slots.
func (b *PrefetchBuffer) Capacity() int { return len(b.lines) }

// Len returns the number of resident lines.
func (b *PrefetchBuffer) Len() int { return b.n }

// find returns the slot holding line l, or -1.
func (b *PrefetchBuffer) find(l mem.Line) int {
	for i, x := range b.lines[:b.n] {
		if x == l {
			return i
		}
	}
	return -1
}

// Lookup returns the completion time of line l's transfer if it is (being)
// prefetched into the buffer.
func (b *PrefetchBuffer) Lookup(l mem.Line) (ready int64, ok bool) {
	if i := b.find(l); i >= 0 {
		return b.ready[i], true
	}
	return 0, false
}

// Insert records a prefetch of line l completing at the given cycle,
// evicting the oldest entry when full. Re-inserting a resident line only
// refreshes its completion time if the new transfer finishes earlier; it
// keeps the line's place in the FIFO order.
func (b *PrefetchBuffer) Insert(l mem.Line, readyAt int64) {
	if i := b.find(l); i >= 0 {
		b.ready[i] = min(b.ready[i], readyAt)
		return
	}
	i := b.n
	if i < len(b.lines) {
		b.n++
	} else {
		i = b.head
		if b.head++; b.head == len(b.lines) {
			b.head = 0
		}
	}
	b.lines[i], b.ready[i] = l, readyAt
}

// Invalidate empties the buffer.
func (b *PrefetchBuffer) Invalidate() { b.head, b.n = 0, 0 }
