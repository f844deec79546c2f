package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"abndp/internal/config"
	"abndp/internal/mem"
	"abndp/internal/task"
	"abndp/internal/topology"
)

// memoForms is a FormStore over a map keyed by the printed line list. It
// keeps a copy of every form offered, as the checkpoint store does, and
// counts its hits.
type memoForms struct {
	forms map[string][]uint64
	hits  int
}

func newMemoForms() *memoForms { return &memoForms{forms: map[string][]uint64{}} }

func (m *memoForms) Get(lines []mem.Line) []uint64 {
	f := m.forms[fmt.Sprint(lines)]
	if f != nil {
		m.hits++
	}
	return f
}

func (m *memoForms) Put(lines []mem.Line, f []uint64) {
	m.forms[fmt.Sprint(lines)] = slices.Clone(f)
}

// TestCostVecSourcePlacementIdentical drives two schedulers through the
// same randomized decision stream — identical tasks, load snapshots, and
// origins — one computing costmem's stack form on every placement and one
// through a form store, which returns the copies it kept. Every placement
// must match: this is the sched-layer half of the checkpoint-parity
// guarantee (the end-to-end half is the result-hash test in the root
// package). Both sides run the same kernel;
// TestPlaceMatchesPerUnitReference compares placement against the
// per-unit MemCost definition.
func TestCostVecSourcePlacementIdentical(t *testing.T) {
	for _, tc := range []struct {
		name      string
		kind      config.Policy
		campAware bool
	}{
		{"hybrid-campaware", "hybrid", true},
		{"hybrid-homes", "hybrid", false},
		{"lowest-distance", "lowestdist", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv()
			inline := e.scheduler(tc.kind, tc.campAware)
			cached := e.scheduler(tc.kind, tc.campAware)
			store := newMemoForms()
			cached.SetFormStore(store)

			rng := rand.New(rand.NewSource(7))
			units := e.topo.Units()
			w := make([]float64, units)
			for i := 0; i < 400; i++ {
				if i%25 == 0 {
					for u := range w {
						w[u] = float64(rng.Intn(500))
					}
					inline.Exchange(w)
					cached.Exchange(w)
				}
				main := topology.UnitID(rng.Intn(units))
				lines := []mem.Line{e.lineOn(main)}
				for j := rng.Intn(4); j > 0; j-- {
					lines = append(lines, e.lineOn(topology.UnitID(rng.Intn(units))))
				}
				tk := &task.Task{Hint: task.Hint{Lines: lines}}
				origin := topology.UnitID(rng.Intn(units))
				a := inline.Place(tk, origin)
				b := cached.Place(tk, origin)
				if a != b {
					t.Fatalf("step %d: inline placed on %d, form store on %d", i, a, b)
				}
			}
			if store.hits == 0 {
				t.Fatal("form store was never hit — test exercised only cold lookups")
			}
		})
	}
}

// spyForms is a FormStore that records whether it was consulted and
// stores nothing.
type spyForms struct{ called bool }

func (s *spyForms) Get([]mem.Line) []uint64  { s.called = true; return nil }
func (s *spyForms) Put([]mem.Line, []uint64) { s.called = true }

// TestCostVecSourceIgnoredUnderDeadMask: once a dead mask is installed the
// form store must not be consulted at all — costmem is no longer pure and a
// stale form could credit a dead camp.
func TestCostVecSourceIgnoredUnderDeadMask(t *testing.T) {
	e := newEnv()
	s := e.scheduler("hybrid", true)
	spy := &spyForms{}
	s.SetFormStore(spy)
	dead := make([]bool, e.topo.Units())
	dead[3] = true
	s.SetDeadMask(dead)
	tk := &task.Task{Hint: task.Hint{Lines: []mem.Line{e.lineOn(3), e.lineOn(9)}}}
	s.Place(tk, 0)
	if spy.called {
		t.Fatal("form store consulted while a dead mask is installed")
	}
	s.SetDeadMask(nil)
	s.Place(tk, 0)
	if !spy.called {
		t.Fatal("form store not consulted after the mask was removed")
	}
}
