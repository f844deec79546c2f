package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"abndp/internal/config"
	"abndp/internal/core"
	"abndp/internal/mem"
	"abndp/internal/task"
	"abndp/internal/topology"
)

// TestCostVecSourcePlacementIdentical drives two schedulers through the
// same randomized decision stream — identical tasks, load snapshots, and
// origins — one evaluating costmem inline and one through a precomputed
// MemCostVec source. Every placement must match: this is the sched-layer
// half of the checkpoint-parity guarantee (the end-to-end half is the
// result-hash test in the root package). Both sides run the same kernel;
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
			model := core.NewCostModel(e.noc, e.camps, tc.campAware)
			vecs := map[string][]float64{} // keyed by the full hint line list
			hits := 0
			cached.SetCostVecSource(func(tk *task.Task) []float64 {
				key := fmt.Sprint(tk.Hint.Lines)
				v, ok := vecs[key]
				if !ok {
					v = model.MemCostVec(tk.Hint.Lines)
					vecs[key] = v
				} else {
					hits++
				}
				return v
			})

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
					t.Fatalf("step %d: inline placed on %d, vec source on %d", i, a, b)
				}
			}
			if hits == 0 {
				t.Fatal("vec source was never hit — test exercised only cold lookups")
			}
		})
	}
}

// TestCostVecSourceIgnoredUnderDeadMask: once a dead mask is installed the
// source must not be consulted at all — costmem is no longer pure and a
// stale vector could credit a dead camp.
func TestCostVecSourceIgnoredUnderDeadMask(t *testing.T) {
	e := newEnv()
	s := e.scheduler("hybrid", true)
	called := false
	s.SetCostVecSource(func(tk *task.Task) []float64 {
		called = true
		return nil
	})
	dead := make([]bool, e.topo.Units())
	dead[3] = true
	s.SetDeadMask(dead)
	tk := &task.Task{Hint: task.Hint{Lines: []mem.Line{e.lineOn(3), e.lineOn(9)}}}
	s.Place(tk, 0)
	if called {
		t.Fatal("cost-vec source consulted while a dead mask is installed")
	}
	s.SetDeadMask(nil)
	s.Place(tk, 0)
	if !called {
		t.Fatal("cost-vec source not consulted after the mask was removed")
	}
}
