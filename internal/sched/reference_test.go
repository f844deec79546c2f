package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"abndp/internal/core"
	"abndp/internal/mem"
	"abndp/internal/task"
	"abndp/internal/topology"
)

// refLowestDistance is the per-unit definition of the lowestdist policy:
// Candidates once, then MemCost for every live unit, ties toward the main
// element's home.
func refLowestDistance(s *Scheduler, t *task.Task, _ topology.UnitID) (topology.UnitID, float64, float64) {
	_, cands := s.cost.Candidates(t.Hint.Lines, nil, nil)
	best := s.camps.Home(t.Hint.Lines[0])
	if s.dead != nil {
		best = s.NearestLive(best)
		if best < 0 {
			return -1, 0, 0
		}
	}
	bestCost := s.cost.MemCost(cands, best)
	for u := 0; u < s.units; u++ {
		if s.dead != nil && s.dead[u] {
			continue
		}
		if c := s.cost.MemCost(cands, topology.UnitID(u)); c < bestCost {
			best, bestCost = topology.UnitID(u), c
		}
	}
	return best, bestCost, 0
}

// refHybrid is the per-unit definition of the hybrid policy: the argmin
// over live units of MemCost + B * load term.
func refHybrid(s *Scheduler, t *task.Task, origin topology.UnitID) (topology.UnitID, float64, float64) {
	_, cands := s.cost.Candidates(t.Hint.Lines, nil, nil)
	mean, live := s.loadView(origin, hybridMeanFloor)
	if live == 0 {
		return -1, 0, 0
	}
	best := s.camps.Home(t.Hint.Lines[0])
	if s.dead != nil {
		best = s.NearestLive(best)
	}
	bestMem := s.cost.MemCost(cands, best)
	bestLoad := s.hybridB * (s.loadBuf[best]/mean - 1)
	bestScore := bestMem + bestLoad
	for u := 0; u < s.units; u++ {
		if s.dead != nil && s.dead[u] {
			continue
		}
		mem := s.cost.MemCost(cands, topology.UnitID(u))
		load := s.hybridB * (s.loadBuf[u]/mean - 1)
		if score := mem + load; score < bestScore {
			best, bestScore, bestMem, bestLoad = topology.UnitID(u), score, mem, load
		}
	}
	return best, bestMem, bestLoad
}

// TestPlaceMatchesPerUnitReference replays seeded decision streams through
// two schedulers: one running the registered policy, whose costmem comes
// from the stack-factored kernel (or a memoizing MemCostVec source), and
// one running the per-unit reference above. Policies that never evaluate
// costmem are their own reference. Streams mix random loads, exchanges,
// origins, repeated hints and duplicate lines, and switch on a dead mask
// (with service rates) halfway, killing more units as they go. Every
// decision must agree on the target and, bit for bit, on the memory cost
// and load term the score hook reports.
func TestPlaceMatchesPerUnitReference(t *testing.T) {
	refs := map[string]PlaceFunc{"lowestdist": refLowestDistance, "hybrid": refHybrid}
	e := newEnv()
	for _, name := range []string{"home", "lowestdist", "hybrid", "loadonly"} {
		p, ok := Lookup(name)
		if !ok {
			t.Fatalf("policy %q not registered", name)
		}
		ref := refs[name]
		if ref == nil {
			ref = p.Place
		}
		for _, campAware := range []bool{false, true} {
			for _, source := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/campaware=%v/source=%v", name, campAware, source), func(t *testing.T) {
					replayAgainstReference(t, e, name, ref, campAware, source)
				})
			}
		}
	}
}

func replayAgainstReference(t *testing.T, e *env, policy string, ref PlaceFunc, campAware, source bool) {
	got := e.scheduler(policy, campAware)
	want := e.scheduler(policy, campAware)
	want.policy = &Policy{Name: policy, Place: ref}
	if source {
		model := core.NewCostModel(e.noc, e.camps, campAware)
		vecs := map[string][]float64{}
		got.SetCostVecSource(func(tk *task.Task) []float64 {
			key := fmt.Sprint(tk.Hint.Lines)
			if vecs[key] == nil {
				vecs[key] = model.MemCostVec(tk.Hint.Lines)
			}
			return vecs[key]
		})
	}
	type decision struct {
		target    topology.UnitID
		mem, load float64
	}
	var gotD, wantD decision
	got.SetScoreHook(func(_, target topology.UnitID, mem, load float64) { gotD = decision{target, mem, load} })
	want.SetScoreHook(func(_, target topology.UnitID, mem, load float64) { wantD = decision{target, mem, load} })

	rng := rand.New(rand.NewSource(int64(len(policy))*4 + 7))
	units := e.topo.Units()
	w := make([]float64, units)
	dead := make([]bool, units)
	rates := make([]float64, units)
	// A random line of a random unit: the offset varies the camps.
	randLine := func() mem.Line {
		off := uint64(rng.Intn(1<<20)) * mem.LineSize
		return mem.LineOf(mem.Addr(uint64(rng.Intn(units))*e.cfg.UnitBytes + off))
	}
	var hints [][]mem.Line
	deadPlaced := 0
	for i := 0; i < 600; i++ {
		if i%25 == 0 {
			for u := range w {
				if rng.Intn(8) > 0 {
					w[u] = float64(rng.Intn(500))
				} else {
					w[u] = 0
				}
			}
			got.Exchange(w)
			want.Exchange(w)
		}
		if i == 300 {
			for u := range dead {
				dead[u] = rng.Intn(5) == 0
				rates[u] = 0.25 + rng.Float64()
			}
			for _, s := range []*Scheduler{got, want} {
				s.SetDeadMask(dead)
				s.cost.SetDeadMask(dead)
				s.SetServiceRates(rates)
			}
		}
		if i > 300 && i%40 == 0 {
			dead[rng.Intn(units)] = true // the mask is aliased, like the fault layer's
		}

		var lines []mem.Line
		if len(hints) > 0 && rng.Intn(3) == 0 {
			lines = hints[rng.Intn(len(hints))]
		} else {
			lines = []mem.Line{randLine()}
			for j := rng.Intn(12); j > 0; j-- {
				if rng.Intn(5) == 0 {
					lines = append(lines, lines[rng.Intn(len(lines))])
				} else {
					lines = append(lines, randLine())
				}
			}
			hints = append(hints, lines)
		}
		tk := &task.Task{Hint: task.Hint{Lines: append([]mem.Line(nil), lines...)}}
		if rng.Intn(4) == 0 {
			tk.Hint.Workload = 1 + 40*rng.Float64()
		}
		origin := topology.UnitID(rng.Intn(units))
		gotD, wantD = decision{}, decision{}
		a, b := got.Place(tk, origin), want.Place(tk, origin)
		if a != b {
			t.Fatalf("step %d: placed on %d, reference on %d", i, a, b)
		}
		if gotD.target != wantD.target ||
			math.Float64bits(gotD.mem) != math.Float64bits(wantD.mem) ||
			math.Float64bits(gotD.load) != math.Float64bits(wantD.load) {
			t.Fatalf("step %d: score hook saw %+v, reference %+v", i, gotD, wantD)
		}
		if i >= 300 && dead[e.camps.Home(lines[0])] {
			deadPlaced++
		}
	}
	if deadPlaced == 0 {
		t.Fatal("no task had a dead home — the dead-mask phase exercised nothing")
	}
}
