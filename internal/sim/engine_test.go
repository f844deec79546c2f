package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	var e Engine
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %d, want 30", e.Now())
	}
}

func TestEngineSameCycleFIFO(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-cycle events ran out of order: %v", got)
		}
	}
}

func TestEngineAfterClampsNegative(t *testing.T) {
	var e Engine
	ran := false
	e.After(-5, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("negative-delay event never ran")
	}
	if e.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", e.Now())
	}
}

func TestEngineAtPastClamps(t *testing.T) {
	var e Engine
	var order []string
	e.At(100, func() {
		e.At(50, func() { order = append(order, "past") })
		e.After(0, func() { order = append(order, "now") })
	})
	e.Run()
	if len(order) != 2 || order[0] != "past" || order[1] != "now" {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 100 {
		t.Fatalf("Now() = %d, want 100", e.Now())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	var e Engine
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.After(7, tick)
		}
	}
	e.After(0, tick)
	e.Run()
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if e.Now() != 99*7 {
		t.Fatalf("Now() = %d, want %d", e.Now(), 99*7)
	}
}

func TestEngineRunUntil(t *testing.T) {
	var e Engine
	var got []int64
	for _, at := range []int64{10, 20, 30, 40} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.RunUntil(25)
	if len(got) != 2 {
		t.Fatalf("ran %d events, want 2", len(got))
	}
	if e.Now() != 25 {
		t.Fatalf("Now() = %d, want 25", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	e.Run()
	if len(got) != 4 || e.Now() != 40 {
		t.Fatalf("after Run: got=%v now=%d", got, e.Now())
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing timestamp order and the clock never goes backwards.
func TestEngineMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		var e Engine
		last := int64(-1)
		ok := true
		for _, d := range delays {
			at := int64(d)
			e.At(at, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Halt may be called from another goroutine while Run executes: Run
// returns before its next event and leaves the queue as it was.
func TestHaltFromAnotherGoroutine(t *testing.T) {
	var e Engine
	var tick func()
	tick = func() { e.After(1, tick) } // an event chain that never ends
	e.After(0, tick)
	done := make(chan struct{})
	go func() {
		e.Run()
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	e.Halt()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after Halt")
	}
	if !e.Halted() || e.Pending() != 1 || e.Executed() == 0 {
		t.Fatalf("halted %v, pending %d, executed %d; want true, 1, > 0", e.Halted(), e.Pending(), e.Executed())
	}
}
