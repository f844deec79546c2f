package cache

import "abndp/internal/mem"

// firstSlots is the slot count of a ring's first allocation. At quick
// scale most rings never hold more than 8 lines, so a ring starts at this
// size and grows once, straight to its capacity, when one more line
// becomes resident. Of first steps of 4, 8 and 16, 8 allocates least on
// matrix-quick and is within 1.4% of the best on the example campaign and
// a full serial abndpbench (docs/PERF.md, "Prefetch rings and forwarded
// load sized by use").
const firstSlots = 8

// PrefetchBuffer models the per-unit SRAM prefetch buffer (Table 1: 4 kB,
// 64 B blocks, FIFO). Each entry records when the prefetched line's
// transfer completes, so the core can compute its residual stall. Hits in
// the buffer bypass the L1 caches (paper §3.2).
//
// The buffer is a ring of line and ready-time slots. It fills slots 0, 1,
// ... in order after construction or Invalidate, and only once all
// capacity slots are resident does a new line overwrite the oldest one at
// head, so the resident lines are always lines[:n]. The slots are
// allocated on use: none at construction, firstSlots on the first Insert,
// and the full capacity when a line arrives with those all resident. Both
// steps happen before the ring can first wrap, so they change neither the
// FIFO order nor which line is evicted. Lookups scan the resident lines:
// at Table 1's 64 slots a hashed index is no faster beyond measurement
// noise and costs memory per unit (docs/PERF.md, "The line-fetch path").
type PrefetchBuffer struct {
	lines    []mem.Line // slot -> resident line
	ready    []int64    // slot -> completion cycle of its line's transfer
	capacity int        // slots once fully grown
	head     int        // oldest slot once the ring is full, else 0
	n        int        // resident lines
}

// NewPrefetchBuffer builds a buffer holding bytes/64 lines (at least one).
// It allocates no slots until the first Insert.
func NewPrefetchBuffer(bytes int) *PrefetchBuffer {
	return &PrefetchBuffer{capacity: max(bytes/mem.LineSize, 1)}
}

// Capacity returns the number of lines the buffer holds when full.
func (b *PrefetchBuffer) Capacity() int { return b.capacity }

// Len returns the number of resident lines.
func (b *PrefetchBuffer) Len() int { return b.n }

// Lookup returns the completion time of line l's transfer if it is (being)
// prefetched into the buffer.
func (b *PrefetchBuffer) Lookup(l mem.Line) (ready int64, ok bool) {
	for i, x := range b.lines[:b.n] {
		if x == l {
			return b.ready[i], true
		}
	}
	return 0, false
}

// Insert records a prefetch of line l completing at the given cycle,
// evicting the oldest entry when full. The line must not be resident:
// callers insert only after a Lookup of it missed.
func (b *PrefetchBuffer) Insert(l mem.Line, readyAt int64) {
	i := b.n
	if i < b.capacity {
		if i == len(b.lines) {
			b.grow()
		}
		b.n++
	} else {
		i = b.head
		if b.head++; b.head == b.capacity {
			b.head = 0
		}
	}
	b.lines[i], b.ready[i] = l, readyAt
}

// grow allocates the ring's first firstSlots slots, or all of its capacity
// once those are resident, keeping the resident lines in their slots.
func (b *PrefetchBuffer) grow() {
	c := b.capacity
	if len(b.lines) == 0 {
		c = min(firstSlots, c)
	}
	lines, ready := make([]mem.Line, c), make([]int64, c)
	copy(lines, b.lines[:b.n])
	copy(ready, b.ready[:b.n])
	b.lines, b.ready = lines, ready
}

// Invalidate empties the buffer. It keeps the slots allocated so far.
func (b *PrefetchBuffer) Invalidate() { b.head, b.n = 0, 0 }
