package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"abndp/internal/config"
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
// over live units of MemCost + B * load term, on the dense load view.
func refHybrid(s *Scheduler, t *task.Task, origin topology.UnitID) (topology.UnitID, float64, float64) {
	_, cands := s.cost.Candidates(t.Hint.Lines, nil, nil)
	mean, live := denseLoads(s, origin)
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

// denseLoads is the references' load view: the dense path, after building
// the forwarded-load rows as loadView does.
func denseLoads(s *Scheduler, origin topology.UnitID) (mean float64, live int) {
	if s.rows == nil {
		s.rows = make([][]forward, s.units)
	}
	return s.denseView(origin)
}

// refLoadOnly is the per-unit definition of the loadonly policy: the
// argmin over live units of the load term, on the dense load view.
func refLoadOnly(s *Scheduler, t *task.Task, origin topology.UnitID) (topology.UnitID, float64, float64) {
	mean, live := denseLoads(s, origin)
	if live == 0 {
		return -1, 0, 0
	}
	best := s.camps.Home(t.Hint.Lines[0])
	if s.dead != nil {
		best = s.NearestLive(best)
	}
	bestLoad := s.hybridB * (s.loadBuf[best]/mean - 1)
	for u := 0; u < s.units; u++ {
		if s.dead != nil && s.dead[u] {
			continue
		}
		if load := s.hybridB * (s.loadBuf[u]/mean - 1); load < bestLoad {
			best, bestLoad = topology.UnitID(u), load
		}
	}
	return best, 0, bestLoad
}

// viewCases counts the decisions of TestPlaceMatchesPerUnitReference by
// the load view they read.
type viewCases struct {
	exact, dense int
	toDense      int // a dense decision after an exact one in the same interval
	toExact      int // an interval's first decision is exact, the last interval's last was dense
}

// TestPlaceMatchesPerUnitReference replays seeded decision streams through
// two schedulers: one running the policy's place function, whose costmem comes
// from the stack-factored kernel (or a memoizing form store) and whose
// loads from the exact view while an interval allows it, and one running
// the per-unit reference above, which reads the dense view. home places
// without either and is its own reference. Streams mix random integer
// loads, exchanges, origins (half of them from four units, so that rows
// fill), repeated hints and duplicate lines, and one task in four carries
// a fractional workload, which switches its interval to the dense view
// when its origin places again; then they switch on a dead mask (with
// service rates) halfway, killing more units as they go. Every decision
// must agree on the target and, bit for bit, on the memory cost and load
// term the score hook reports. Under hybrid and loadonly, both views must
// serve decisions, and intervals must switch from exact to dense and back;
// both run with the default weight and with B = 0, where every load term
// is ±0 and the first unit of a stack ties with its least-loaded one.
func TestPlaceMatchesPerUnitReference(t *testing.T) {
	refs := map[config.Policy]PlaceFunc{"lowestdist": refLowestDistance, "hybrid": refHybrid, "loadonly": refLoadOnly}
	e := newEnv()
	for _, name := range config.Policies {
		ref := refs[name]
		if ref == nil {
			ref = placeFunc(name)
		}
		alphas := []float64{-1}
		if name == config.PolicyHybrid || name == config.PolicyLoadOnly {
			alphas = append(alphas, 0) // B = 0: every load term is ±0, and scores tie
		}
		for _, campAware := range []bool{false, true} {
			for _, source := range []bool{false, true} {
				for _, alpha := range alphas {
					sub := fmt.Sprintf("%s/campaware=%v/source=%v", name, campAware, source)
					if alpha == 0 {
						sub += "/zeroweight"
					}
					t.Run(sub, func(t *testing.T) {
						c := replayAgainstReference(t, e, name, ref, campAware, source, alpha)
						if name != config.PolicyHybrid && name != config.PolicyLoadOnly {
							return
						}
						t.Logf("%+v", c)
						for what, n := range map[string]int{
							"exact": c.exact, "dense": c.dense, "toDense": c.toDense, "toExact": c.toExact,
						} {
							if n < 5 {
								t.Errorf("%s decisions occurred %d times, want at least 5", what, n)
							}
						}
					})
				}
			}
		}
	}
}

func replayAgainstReference(t *testing.T, e *env, policy config.Policy, ref PlaceFunc, campAware, source bool, alpha float64) viewCases {
	cfg := e.cfg
	cfg.HybridAlpha = alpha
	got := New(policy, core.NewCostModel(e.noc, e.camps, campAware), e.camps, e.noc, &cfg)
	want := New(policy, core.NewCostModel(e.noc, e.camps, campAware), e.camps, e.noc, &cfg)
	want.place = ref
	if source {
		got.SetFormStore(newMemoForms())
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
	var c viewCases
	var last viewState     // the view the last decision read
	intervalExact := false // a decision of this interval read the exact view
	for i := 0; i < 600; i++ {
		if i%25 == 0 {
			intervalExact = false
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
		if rng.Intn(2) == 0 {
			origin = topology.UnitID(rng.Intn(4))
		}
		gotD, wantD = decision{}, decision{}
		first := i%25 == 0
		a, b := got.Place(tk, origin), want.Place(tk, origin)
		switch got.view {
		case viewExact:
			c.exact++
			if first && last == viewDense {
				c.toExact++
			}
			intervalExact, last = true, viewExact
		case viewDense:
			c.dense++
			if intervalExact && got.dead == nil {
				c.toDense++
				intervalExact = false
			}
			last = viewDense
		}
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
	return c
}
