package sched

import (
	"testing"

	"abndp/internal/config"
	"abndp/internal/mem"
	"abndp/internal/task"
	"abndp/internal/topology"
)

// BenchmarkPlace measures per-task scheduling cost — the simulator's
// hottest path (every task scores all 128 units).
func BenchmarkPlace(b *testing.B) {
	e := newEnv()
	lines := make([]mem.Line, 16)
	for i := range lines {
		lines[i] = e.lineOn(topology.UnitID((i * 37) % 128))
	}
	w := make([]float64, e.topo.Units())
	for i := range w {
		w[i] = float64(100 + i%17)
	}
	// Every eighth unit is dead in the DeadMask case: the fault layer's
	// view, where camps on dead units drop out of costmem.
	dead := make([]bool, e.topo.Units())
	for u := range dead {
		dead[u] = u%8 == 5
	}
	cases := []struct {
		name      string
		kind      config.Policy
		campAware bool
		dead      []bool
	}{
		{"Home", "home", false, nil},
		{"LowestDistance", "lowestdist", false, nil},
		{"Hybrid", "hybrid", false, nil},
		{"HybridCampAware", "hybrid", true, nil},
		{"HybridCampAwareDeadMask", "hybrid", true, dead},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			s := e.scheduler(c.kind, c.campAware)
			if c.dead != nil {
				s.SetDeadMask(c.dead)
				s.cost.SetDeadMask(c.dead)
			}
			s.Exchange(w)
			t := &task.Task{Hint: task.Hint{Lines: lines}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Place(t, topology.UnitID(i%128))
			}
		})
	}
}
