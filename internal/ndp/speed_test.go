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

// A checkpoint miss that the store rejects allocates nothing: costVecFor
// scores into the System's vector, and the shard copies the hint's lines
// and the vector only for an entry it stores. A 1-byte cap rejects every
// insert, so each call is a miss that computes, offers and drops its entry.
func TestRejectedCheckpointMissAllocatesNothing(t *testing.T) {
	sys := NewSystem(config.Default(), config.DesignO)
	store := ckpt.NewStore(1)
	sys.SetCheckpoint(store.Shard("pr|O|" + sys.Cfg.PrefixKey()))
	tsk := hintOver(sys, 3, 40, 99, 127)
	if n := testing.AllocsPerRun(100, func() { sys.costVecFor(tsk) }); n != 0 {
		t.Errorf("a rejected miss allocated %v objects, want 0", n)
	}
	if st := store.Stats(); st.Inserts != 0 || st.Hits != 0 || st.Rejects == 0 {
		t.Fatalf("store stats %+v: want only misses and rejects", st)
	}
}

// The shard stores copies: the stored entry outlives the next miss, which
// overwrites the System's buffer, and the caller's hint lines, which are
// recycled across barriers, and it equals what the kernel computes.
func TestStoredCostVecOwnsItsCopy(t *testing.T) {
	sys := NewSystem(config.Default(), config.DesignO)
	sys.SetCheckpoint(ckpt.NewStore(0).Shard("pr|O|" + sys.Cfg.PrefixKey()))
	a, b := hintOver(sys, 3, 40), hintOver(sys, 99, 127, 5)
	lines := slices.Clone(a.Hint.Lines)
	want := make([]float64, sys.Topo.Units())
	sys.Cost.MemCostVecInto(want, sys.Cost.NewVecScratch(), lines)

	sys.costVecFor(a) // miss: stored
	sys.costVecFor(b) // miss: overwrites the System's buffer
	a.Hint.Lines[0] = b.Hint.Lines[0]
	got := sys.Checkpoint().MemVec(ckpt.HashLines(lines), lines)
	if !slices.Equal(got, want) {
		t.Fatalf("stored vector for hint a = %v, want the kernel's %v", got, want)
	}
	if &got[0] == &sys.ckptVec[0] {
		t.Fatal("stored vector aliases the System's scoring buffer")
	}
}
