package ndp

import (
	"slices"
	"testing"

	"abndp/internal/ckpt"
	"abndp/internal/config"
	"abndp/internal/mem"
	"abndp/internal/task"
)

// hintOver returns a task whose hint holds one line on each of the given
// units.
func hintOver(sys *System, units ...uint64) *task.Task {
	lines := make([]mem.Line, len(units))
	for i, u := range units {
		lines[i] = mem.LineOf(mem.Addr(u*sys.Cfg.UnitBytes + uint64(i)*mem.LineSize))
	}
	return &task.Task{Hint: task.Hint{Lines: lines}}
}

// A checkpoint miss that the store rejects allocates nothing: placement
// computes the costmem form into the scheduler's scratch, and the shard
// makes a payload only for an entry it stores. A 1-byte cap rejects every
// insert, so each placement is a miss that computes, offers and drops its
// entry. Each run exchanges first, so origin 0's forwarded-load row stays
// one entry long.
func TestRejectedCheckpointMissAllocatesNothing(t *testing.T) {
	sys := NewSystem(config.Default(), config.DesignO)
	store := ckpt.NewStore(1)
	sys.SetCheckpoint(store.Shard(sys.CheckpointKey("pr")))
	tsk := hintOver(sys, 3, 40, 99, 127)
	loads := make([]float64, sys.Topo.Units())
	place := func() {
		sys.Sched.Exchange(loads)
		sys.Sched.Place(tsk, 0)
	}
	if n := testing.AllocsPerRun(100, place); n != 0 {
		t.Errorf("a rejected miss allocated %v objects, want 0", n)
	}
	if st := store.Stats(); st.Inserts != 0 || st.Hits != 0 || st.Rejects == 0 {
		t.Fatalf("store stats %+v: want only misses and rejects", st)
	}
}

// The shard stores copies: the stored entry outlives the next miss, which
// overwrites the scheduler's form scratch, and the caller's hint lines,
// which are recycled across barriers, and it equals what the kernel
// computes.
func TestStoredCostVecOwnsItsCopy(t *testing.T) {
	sys := NewSystem(config.Default(), config.DesignO)
	sys.SetCheckpoint(ckpt.NewStore(0).Shard(sys.CheckpointKey("pr")))
	a, b := hintOver(sys, 3, 40), hintOver(sys, 99, 127, 5)
	lines := slices.Clone(a.Hint.Lines)
	want := slices.Clone(sys.Cost.MemCostForm(sys.Cost.NewFormScratch(), lines))
	bForm := sys.Cost.MemCostForm(sys.Cost.NewFormScratch(), b.Hint.Lines)
	if slices.Equal(want, bForm) {
		t.Fatal("hints a and b have equal forms: an alias could not show")
	}

	sys.Sched.Place(a, 0) // miss: stored
	sys.Sched.Place(b, 0) // miss: overwrites the scheduler's form scratch
	a.Hint.Lines[0] = b.Hint.Lines[0]
	got := sys.Checkpoint().Get(lines)
	if slices.Equal(got, bForm) {
		t.Fatal("stored form aliases the scheduler's form scratch")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("stored form for hint a = %v, want the kernel's %v", got, want)
	}
}
