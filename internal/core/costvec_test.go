package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"abndp/internal/config"
	"abndp/internal/mem"
	"abndp/internal/topology"
)

// TestMemCostVecBitIdentical is the load-bearing equivalence behind the
// scheduler's placement and the checkpoint store (internal/sched,
// internal/ckpt): every unit's value in the stack form must be bit-for-bit
// the value the per-unit definition, Candidates+MemCost, produces for that
// unit, or placements and ResultHash drift. The form must also hold the
// invariants placement's two-phase argmin relies on: listed units strictly
// ascend, and each listed value differs from its stack's value and lies
// below it.
//
// It is a seeded property test over random hints of 1-40 lines (duplicates
// included, and one hint per case that repeats a single line) across
// machine shapes (mesh 2x2, 4x4, 8x8; torus on and off; 1 or 8 units per
// stack; 1, 3 or 15 camps; 6 units per stack, whose groups are not a power
// of two in size; and 4 camps on a 5x2 mesh), both camp mappings, camp-aware
// and homes-only models, crossbar latencies of zero, the default and above
// the mesh hop, and no dead mask or random dead masks that include dead
// homes. One scratch serves every hint of a model, so a correction left
// behind by one call would show in the next; a fresh scratch must give the
// same words, and a call must leave no correction or mark behind.
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
						checkMemCostForm(t, rng, cfg, name)
					}
				}
			}
		}
	}
	perStack6, camps4 := def, def
	perStack6.UnitsPerStack = 6 // 24 units per group
	checkMemCostForm(t, rng, perStack6, "mesh4/perstack6/camps3")
	camps4.MeshX, camps4.MeshY, camps4.CampCount = 5, 2, 4 // one stack more than lineMinima reads side by side
	checkMemCostForm(t, rng, camps4, "mesh5x2/camps4")
}

func checkMemCostForm(t *testing.T, rng *rand.Rand, cfg config.Config, name string) {
	t.Helper()
	e := newEnvFor(cfg)
	units, stacks := e.topo.Units(), e.topo.Stacks()
	totalLines := int64(e.space.TotalBytes() / mem.LineSize)
	for _, skewed := range []bool{true, false} {
		cm := NewCampMap(e.topo, e.space, skewed)
		for _, campAware := range []bool{false, true} {
			model := NewCostModel(e.noc, cm, campAware)
			sc := model.NewFormScratch()
			for _, masked := range []bool{false, true} {
				for h := 0; h < 4; h++ {
					lines := make([]mem.Line, 1+rng.Intn(40))
					for i := range lines {
						switch {
						case h == 3 && i > 0:
							lines[i] = lines[0] // one line, repeated
						case i > 0 && rng.Intn(4) == 0:
							lines[i] = lines[rng.Intn(i)] // a duplicate line
						default:
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
					where := fmt.Sprintf("%s skewed=%v campAware=%v dead=%v hint %d (%d lines)",
						name, skewed, campAware, masked, h, len(lines))
					f := model.MemCostForm(sc, lines)
					if fresh := model.MemCostForm(model.NewFormScratch(), lines); !slices.Equal(f, fresh) {
						t.Fatalf("%s: reused scratch gave %v, a fresh one %v", where, f, fresh)
					}
					if slices.ContainsFunc(sc.corr, func(c int64) bool { return c != 0 }) ||
						slices.ContainsFunc(sc.touched, func(w uint64) bool { return w != 0 }) {
						t.Fatalf("%s: the call left corrections or marks behind", where)
					}
					checkFormLayout(t, f, stacks, units, where)
					vec := expandForm(f, cfg.UnitsPerStack, units)
					_, cands := model.Candidates(lines, nil, nil)
					for u := 0; u < units; u++ {
						want := math.Float64bits(model.MemCost(cands, topology.UnitID(u)))
						if got := math.Float64bits(vec[u]); got != want {
							t.Fatalf("%s unit %d: form %v, MemCost %v",
								where, u, vec[u], math.Float64frombits(want))
						}
					}
				}
			}
		}
	}
}

// checkFormLayout checks a form's size against its header and the
// invariants of its listing: strictly ascending units, each value below
// its stack's.
func checkFormLayout(t *testing.T, f StackForm, stacks, units int, where string) {
	t.Helper()
	if f.Stacks() != stacks {
		t.Fatalf("%s: form has %d stacks, want %d", where, f.Stacks(), stacks)
	}
	ls := f.Listing()
	n := ls.Len()
	if want := 1 + stacks + n + (n+3)/4; len(f) != want {
		t.Fatalf("%s: form of %d listed units is %d words, want %d", where, n, len(f), want)
	}
	per := units / stacks
	for i := 0; i < n; i++ {
		u := ls.Unit(i)
		if i > 0 && u <= ls.Unit(i-1) {
			t.Fatalf("%s: listed unit %d is %d after %d, not ascending", where, i, u, ls.Unit(i-1))
		}
		if int(u) >= units {
			t.Fatalf("%s: listed unit %d out of range", where, u)
		}
		if v, sv := ls.Value(i), f.Stack(int(u)/per); !(v < sv) {
			t.Fatalf("%s: listed unit %d has %v, not below its stack's %v", where, u, v, sv)
		}
	}
}

// expandForm writes a form out as one value per unit.
func expandForm(f StackForm, per, units int) []float64 {
	vec := make([]float64, units)
	for u := range vec {
		vec[u] = f.Stack(u / per)
	}
	ls := f.Listing()
	for i := 0; i < ls.Len(); i++ {
		vec[ls.Unit(i)] = ls.Value(i)
	}
	return vec
}

func TestMemCostVecEmptyHint(t *testing.T) {
	e, cm := newEnv(true)
	model := NewCostModel(e.noc, cm, true)
	f := model.MemCostForm(model.NewFormScratch(), nil)
	if f.Stacks() != e.topo.Stacks() || f.Listing().Len() != 0 || len(f) != 1+e.topo.Stacks() {
		t.Fatalf("empty hint: form %v", f)
	}
	for s := 0; s < f.Stacks(); s++ {
		if v := f.Stack(s); math.Float64bits(v) != 0 {
			t.Fatalf("empty hint: stack %d cost %v, want 0", s, v)
		}
	}
}
