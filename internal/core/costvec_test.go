package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"abndp/internal/config"
	"abndp/internal/mem"
	"abndp/internal/topology"
)

// TestMemCostVecBitIdentical is the load-bearing equivalence behind the
// scheduler's placement and the checkpoint store (internal/sched,
// internal/ckpt): every entry of the stack-factored vector must be
// bit-for-bit the value the per-unit definition, Candidates+MemCost,
// produces for that unit, or placements and ResultHash drift.
//
// It is a seeded property test over random hints of 1-40 lines (duplicates
// included) across machine shapes (mesh 2x2, 4x4, 8x8; torus on and off;
// 1 or 8 units per stack; 1, 3 or 15 camps), both camp mappings, camp-aware
// and homes-only models, crossbar latencies of zero, the default and above
// the mesh hop, and no dead mask or random dead masks that include dead
// homes. One scratch serves every hint of a model, so a correction left
// behind by one call would show in the next.
func TestMemCostVecBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	def := config.Default()
	for _, mesh := range []int{2, 4, 8} {
		for _, torus := range []bool{false, true} {
			for _, perStack := range []int{1, 8} {
				campCounts := []int{1, 3}
				if mesh == 4 {
					campCounts = append(campCounts, 15) // one stack per group
				}
				for _, camps := range campCounts {
					for _, intra := range []float64{0, def.IntraHopNS, def.InterHopNS + 2} {
						cfg := def
						cfg.MeshX, cfg.MeshY, cfg.UnitsPerStack = mesh, mesh, perStack
						cfg.Torus, cfg.CampCount, cfg.IntraHopNS = torus, camps, intra
						name := fmt.Sprintf("mesh%d/torus=%v/perstack%d/camps%d/intra%v",
							mesh, torus, perStack, camps, intra)
						checkMemCostVec(t, rng, cfg, name)
					}
				}
			}
		}
	}
}

func checkMemCostVec(t *testing.T, rng *rand.Rand, cfg config.Config, name string) {
	t.Helper()
	e := newEnvFor(cfg)
	units := e.topo.Units()
	totalLines := int64(e.space.TotalBytes() / mem.LineSize)
	for _, skewed := range []bool{true, false} {
		cm := NewCampMap(e.topo, e.space, skewed)
		for _, campAware := range []bool{false, true} {
			model := NewCostModel(e.noc, cm, campAware)
			sc := model.NewVecScratch()
			vec := make([]float64, units)
			for _, masked := range []bool{false, true} {
				for h := 0; h < 3; h++ {
					lines := make([]mem.Line, 1+rng.Intn(40))
					for i := range lines {
						if i > 0 && rng.Intn(4) == 0 {
							lines[i] = lines[rng.Intn(i)] // a duplicate line
						} else {
							lines[i] = mem.Line(rng.Int63n(totalLines))
						}
					}
					var dead []bool
					if masked {
						dead = make([]bool, units)
						for u := range dead {
							dead[u] = rng.Intn(4) == 0
						}
						dead[cm.Home(lines[0])] = true
						dead[cm.Home(lines[len(lines)-1])] = true
					}
					model.SetDeadMask(dead)
					for u := range vec {
						vec[u] = math.NaN() // every entry must be overwritten
					}
					model.MemCostVecInto(vec, sc, lines)
					fresh := model.MemCostVec(lines)
					_, cands := model.Candidates(lines, nil, nil)
					for u := 0; u < units; u++ {
						want := math.Float64bits(model.MemCost(cands, topology.UnitID(u)))
						if got := math.Float64bits(vec[u]); got != want {
							t.Fatalf("%s skewed=%v campAware=%v dead=%v hint %d (%d lines) unit %d: kernel %v, MemCost %v",
								name, skewed, campAware, masked, h, len(lines), u,
								vec[u], math.Float64frombits(want))
						}
						if got := math.Float64bits(fresh[u]); got != want {
							t.Fatalf("%s skewed=%v campAware=%v dead=%v hint %d unit %d: MemCostVec %v, MemCost %v",
								name, skewed, campAware, masked, h, u,
								fresh[u], math.Float64frombits(want))
						}
					}
				}
			}
		}
	}
}

func TestMemCostVecEmptyHint(t *testing.T) {
	e, cm := newEnv(true)
	model := NewCostModel(e.noc, cm, true)
	vec := model.MemCostVec(nil)
	for u, v := range vec {
		if v != 0 {
			t.Fatalf("empty hint: unit %d cost %v, want 0", u, v)
		}
	}
	if len(vec) != e.topo.Units() {
		t.Fatalf("vec length %d", len(vec))
	}
}
