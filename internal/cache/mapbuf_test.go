package cache

import (
	"math/rand"
	"testing"

	"abndp/internal/mem"
)

// mapPrefetchBuffer is the reference model for PrefetchBuffer: the map of
// completion times plus the sliding FIFO order slice that the ring
// replaced. It is kept verbatim so the ring can be checked against it
// operation by operation.
type mapPrefetchBuffer struct {
	capacity int
	order    []mem.Line // FIFO order of resident lines
	ready    map[mem.Line]int64
}

func newMapPrefetchBuffer(bytes int) *mapPrefetchBuffer {
	c := bytes / mem.LineSize
	if c < 1 {
		c = 1
	}
	return &mapPrefetchBuffer{
		capacity: c,
		ready:    make(map[mem.Line]int64, c),
	}
}

func (b *mapPrefetchBuffer) Len() int { return len(b.order) }

func (b *mapPrefetchBuffer) Lookup(l mem.Line) (ready int64, ok bool) {
	ready, ok = b.ready[l]
	return ready, ok
}

func (b *mapPrefetchBuffer) Insert(l mem.Line, readyAt int64) {
	if old, ok := b.ready[l]; ok {
		if readyAt < old {
			b.ready[l] = readyAt
		}
		return
	}
	if len(b.order) >= b.capacity {
		oldest := b.order[0]
		b.order = b.order[1:]
		delete(b.ready, oldest)
	}
	b.order = append(b.order, l)
	b.ready[l] = readyAt
}

func (b *mapPrefetchBuffer) Invalidate() {
	b.order = b.order[:0]
	for k := range b.ready {
		delete(b.ready, k)
	}
}

// The ring must be observationally identical to the map reference: the
// same Lookup results and the same Len after every operation, over seeded
// streams of inserts, lookups and invalidations. A line is inserted only
// after its Lookup missed, as the line-fetch path does, so the reference's
// refresh branch for resident lines never runs. The capacities cover one
// slot, the smallest rings that wrap, an odd size, rings at and one past
// the first growth step, and Table 1's 64 slots, so streams cross both
// growth steps, wrap after them and regrow nothing after Invalidate.
func TestRingMatchesMap(t *testing.T) {
	const seeds, ops = 20, 20000
	for _, slots := range []int{1, 2, 3, 7, firstSlots, firstSlots + 1, 64} {
		for seed := int64(1); seed <= seeds; seed++ {
			ring, ref := NewPrefetchBuffer(slots*mem.LineSize), newMapPrefetchBuffer(slots*mem.LineSize)
			if ring.Capacity() != slots {
				t.Fatalf("ring has %d slots, want %d", ring.Capacity(), slots)
			}
			rng := rand.New(rand.NewSource(seed))
			span := 2*slots + 1 // lines both resident and evicted
			for op := 0; op < ops; op++ {
				l := mem.Line(rng.Intn(span))
				var name string
				switch r := rng.Intn(100); {
				case r < 50:
					name = "Insert"
					if _, ok := ring.Lookup(l); !ok {
						at := rng.Int63n(1 << 20)
						ring.Insert(l, at)
						ref.Insert(l, at)
					}
				case r < 99:
					name = "Lookup"
				default:
					name = "Invalidate"
					ring.Invalidate()
					ref.Invalidate()
				}
				got, gok := ring.Lookup(l)
				want, wok := ref.Lookup(l)
				if got != want || gok != wok || ring.Len() != ref.Len() {
					t.Fatalf("%d slots, seed %d: op %d %s(%d): Lookup = %d,%v, map %d,%v; Len %d vs %d",
						slots, seed, op, name, l, got, gok, want, wok, ring.Len(), ref.Len())
				}
			}
		}
	}
}
