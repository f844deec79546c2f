package sched

import (
	"testing"

	"abndp/internal/ckpt"
	"abndp/internal/config"
	"abndp/internal/mem"
	"abndp/internal/task"
	"abndp/internal/topology"
)

// BenchmarkPlace measures per-task scheduling cost — the simulator's
// hottest path (every task scores all 128 units). Like the engine, which
// exchanges load snapshots periodically, it exchanges every 128
// placements, so each origin's forwarded-load row stays as short as in a
// run. The StoreHit case reads the hint's stack form from a checkpoint
// shard that already holds it, as every placement after a hint's first
// does in a bench.Runner; the other cases compute the form.
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
		store     bool
	}{
		{"Home", "home", false, nil, false},
		{"LowestDistance", "lowestdist", false, nil, false},
		{"Hybrid", "hybrid", false, nil, false},
		{"HybridCampAware", "hybrid", true, nil, false},
		{"HybridCampAwareDeadMask", "hybrid", true, dead, false},
		{"HybridCampAwareStoreHit", "hybrid", true, nil, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			s := e.scheduler(c.kind, c.campAware)
			if c.dead != nil {
				s.SetDeadMask(c.dead)
				s.cost.SetDeadMask(c.dead)
			}
			t := &task.Task{Hint: task.Hint{Lines: lines}}
			if c.store {
				s.SetFormStore(ckpt.NewStore(0).Shard("bench"))
				s.Place(t, 0) // the miss that stores the form
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%128 == 0 {
					s.Exchange(w)
				}
				s.Place(t, topology.UnitID(i%128))
			}
		})
	}
}
