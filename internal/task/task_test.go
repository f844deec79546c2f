package task

import (
	"testing"
	"testing/quick"

	"abndp/internal/mem"
)

func TestEstimatedWorkload(t *testing.T) {
	h := Hint{Lines: []mem.Line{1, 2, 3}}
	if h.EstimatedWorkload() != 3 {
		t.Fatalf("estimate = %v, want 3 (line count)", h.EstimatedWorkload())
	}
	h.Workload = 42
	if h.EstimatedWorkload() != 42 {
		t.Fatalf("explicit workload = %v, want 42", h.EstimatedWorkload())
	}
}

func TestQueueFIFO(t *testing.T) {
	var q Queue
	for i := 0; i < 10; i++ {
		q.Push(&Task{Elem: i})
	}
	if q.Len() != 10 {
		t.Fatalf("Len = %d, want 10", q.Len())
	}
	for i := 0; i < 10; i++ {
		got := q.Pop()
		if got == nil || got.Elem != i {
			t.Fatalf("Pop %d = %v", i, got)
		}
	}
	if q.Pop() != nil {
		t.Fatal("Pop on empty queue should return nil")
	}
}

func TestQueueAt(t *testing.T) {
	var q Queue
	for i := 0; i < 5; i++ {
		q.Push(&Task{Elem: i})
	}
	q.Pop()
	if q.At(0).Elem != 1 || q.At(3).Elem != 4 {
		t.Fatal("At indexing wrong after Pop")
	}
}

func TestStealBack(t *testing.T) {
	var q Queue
	for i := 0; i < 10; i++ {
		q.Push(&Task{Elem: i})
	}
	stolen := q.StealBack(nil, 3)
	if len(stolen) != 3 {
		t.Fatalf("stole %d, want 3", len(stolen))
	}
	for i, s := range stolen {
		if s.Elem != 7+i {
			t.Fatalf("stolen[%d].Elem = %d, want %d", i, s.Elem, 7+i)
		}
	}
	if q.Len() != 7 {
		t.Fatalf("Len after steal = %d, want 7", q.Len())
	}
	// Remaining order preserved.
	for i := 0; i < 7; i++ {
		if q.Pop().Elem != i {
			t.Fatal("steal disturbed remaining order")
		}
	}
}

func TestStealBackClamped(t *testing.T) {
	var q Queue
	q.Push(&Task{Elem: 1})
	if got := q.StealBack(nil, 10); len(got) != 1 {
		t.Fatalf("StealBack(nil, 10) on len-1 queue = %d tasks", len(got))
	}
	if q.StealBack(nil, 5) != nil {
		t.Fatal("steal from empty queue should return nil")
	}
	if q.StealBack(nil, 0) != nil {
		t.Fatal("StealBack(nil, 0) should return nil")
	}
}

// StealBack appends to the caller's buffer: a thief that hands the same
// buffer back each time steals without allocating, and earlier entries
// stay in front of the stolen tasks.
func TestStealBackAppendsToBuffer(t *testing.T) {
	var q Queue
	for i := 0; i < 64; i++ {
		q.Push(&Task{Elem: i})
	}
	buf := make([]*Task, 0, 4)
	if n := testing.AllocsPerRun(10, func() {
		buf = q.StealBack(buf[:0], 4)
		for _, t := range buf {
			q.Push(t)
		}
	}); n != 0 {
		t.Fatalf("StealBack into a large enough buffer allocated %v times, want 0", n)
	}
	head := &Task{Elem: -1}
	got := q.StealBack([]*Task{head}, 2)
	if len(got) != 3 || got[0] != head || got[1].Elem+1 != got[2].Elem {
		t.Fatalf("StealBack appended %v after the buffer's entry", got)
	}
}

func TestQueueCompaction(t *testing.T) {
	var q Queue
	// Interleave pushes and pops to force compaction paths.
	n := 0
	for round := 0; round < 100; round++ {
		for i := 0; i < 50; i++ {
			q.Push(&Task{Elem: n})
			n++
		}
		for i := 0; i < 50; i++ {
			q.Pop()
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d, want 0", q.Len())
	}
	if len(q.items) > 200 {
		t.Fatalf("internal slice grew to %d; compaction broken", len(q.items))
	}
}

func TestPoolRecyclesTasksAndHintCapacity(t *testing.T) {
	var p Pool
	a := p.Get()
	a.Elem = 7
	a.Hint.Lines = append(a.Hint.Lines, mem.Line(1), mem.Line(2), mem.Line(3))
	keepCap := cap(a.Hint.Lines)
	p.Put(a)

	b := p.Get()
	if b != a {
		t.Fatal("Get did not return the recycled task")
	}
	if b.Elem != 0 || b.Prefetched || b.TS != 0 {
		t.Fatalf("recycled task not zeroed: %+v", b)
	}
	if len(b.Hint.Lines) != 0 || cap(b.Hint.Lines) != keepCap {
		t.Fatalf("hint lines len=%d cap=%d, want len 0 cap %d",
			len(b.Hint.Lines), cap(b.Hint.Lines), keepCap)
	}
	if c := p.Get(); c == b {
		t.Fatal("Get returned a task still in use")
	}
}

// Property: any sequence of pushes, pops, and steals preserves the multiset
// and relative FIFO order of surviving tasks.
func TestQueueOrderProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		var q Queue
		next := 0
		var model []int // reference deque
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // push
				q.Push(&Task{Elem: next})
				model = append(model, next)
				next++
			case 2: // pop
				got := q.Pop()
				if len(model) == 0 {
					if got != nil {
						return false
					}
				} else {
					if got == nil || got.Elem != model[0] {
						return false
					}
					model = model[1:]
				}
			case 3: // steal 2
				stolen := q.StealBack(nil, 2)
				k := len(stolen)
				if k > len(model) {
					return false
				}
				for i, s := range stolen {
					if s.Elem != model[len(model)-k+i] {
						return false
					}
				}
				model = model[:len(model)-k]
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
