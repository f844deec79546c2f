package sched

import (
	"math"
	"math/rand"
	"testing"

	"abndp/internal/mem"
	"abndp/internal/task"
	"abndp/internal/topology"
)

// exactCases counts the intervals of TestExactViewMatchesDenseView by how
// their views went.
type exactCases struct {
	exact      int // every view exact
	denseStart int // the snapshot does not qualify: dense from the first view
	fractional int // exact, then dense from a fractional forwarded load
	bound      int // exact, then dense once a patched load takes the absolute sum to 2^53
}

// TestExactViewMatchesDenseView holds the exact load view to the dense one
// it stands in for. Seeded streams of exchanges, placements and direct
// views run a hybrid scheduler over integer snapshots, some with negative
// loads and -0, and integer workloads, with now and then a fractional
// one; other intervals exchange a fractional snapshot, one whose absolute
// loads sum to 2^53, or one just below that which a large forwarded load
// pushes over. After every placement and every view, the loads, the mean
// and the live count must equal the dense table's (denseDelta in
// dense_test.go) bit for bit, and while the view is exact each stack's
// least-loaded unit must be the first of its units whose load is least.
// Each way an interval can go must occur.
func TestExactViewMatchesDenseView(t *testing.T) {
	const seeds, ops = 4, 3000
	e := newEnv()
	units := e.topo.Units()
	var c exactCases
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := e.scheduler("hybrid", false)
		ref := &denseDelta{s: s, loadBuf: make([]float64, units)}
		w := make([]float64, units)
		origins := []topology.UnitID{0, 5, 63, 127}
		kind, views, exactViews, switched := 0, 0, 0, false
		// endInterval classifies the interval that an exchange ends.
		endInterval := func() {
			switch {
			case views == 0:
			case exactViews == views:
				c.exact++
			case exactViews == 0:
				c.denseStart++
			case switched && kind == 3:
				c.bound++
			case switched:
				c.fractional++
			}
			views, exactViews, switched = 0, 0, false
		}
		// observe counts the view the scheduler just read and, while it is
		// exact, checks each stack's least-loaded unit against the loads.
		observe := func(op int) {
			t.Helper()
			if s.DegradedLoads() != ref.degraded {
				t.Fatalf("seed %d op %d: %d loads clamped, dense %d", seed, op, s.DegradedLoads(), ref.degraded)
			}
			views++
			if s.view != viewExact {
				switched = exactViews > 0
				return
			}
			exactViews++
			for st, got := range s.least {
				lo := st * s.perStack
				want := lo
				for u := lo; u < lo+s.perStack; u++ {
					if s.loadBuf[u] < s.loadBuf[want] {
						want = u
					}
				}
				if int(got) != want {
					t.Fatalf("seed %d op %d: stack %d least-loaded unit %d, want %d", seed, op, st, got, want)
				}
			}
		}
		var gotLoad float64
		s.SetScoreHook(func(_, _ topology.UnitID, _, load float64) { gotLoad = load })
		for op := 0; op < ops; op++ {
			if op%60 == 0 {
				endInterval()
				kind = rng.Intn(6)
				for u := range w {
					switch kind {
					case 1: // fractional
						w[u] = rng.Float64() * 400
					case 2: // every load 2^46: the absolute sum is 2^53
						w[u] = 1 << 46
					case 3: // the absolute sum just below 2^53
						w[u] = (1<<53 - 1<<48) / 128
					default: // small integers, some negative or -0
						switch rng.Intn(10) {
						case 0:
							w[u] = -float64(rng.Intn(50))
						case 1:
							w[u] = math.Copysign(0, -1)
						default:
							w[u] = float64(rng.Intn(400))
						}
					}
				}
				s.Exchange(w)
				ref.exchange()
				continue
			}
			origin := origins[rng.Intn(len(origins))]
			if rng.Intn(4) == 0 {
				origin = topology.UnitID(rng.Intn(units))
			}
			if rng.Intn(3) == 0 {
				gm, gl := s.loadView(origin)
				wm, wl := ref.loadView(origin)
				if math.Float64bits(gm) != math.Float64bits(wm) || gl != wl || !sameBits(s.loadBuf, ref.loadBuf) {
					t.Fatalf("seed %d op %d: view of origin %d (view state %d): mean %v live %d, dense %v %d (loads equal %v)",
						seed, op, origin, s.view, gm, gl, wm, wl, sameBits(s.loadBuf, ref.loadBuf))
				}
				observe(op)
				continue
			}
			lines := make([]mem.Line, 1+rng.Intn(4))
			for i := range lines {
				lines[i] = e.lineOn(topology.UnitID(rng.Intn(units)))
			}
			tsk := &task.Task{Hint: task.Hint{Lines: lines}}
			switch {
			case kind == 3 && rng.Intn(8) == 0:
				tsk.Hint.Workload = 1 << 41 // x128: 2^48 more load
			case kind != 3 && rng.Intn(40) == 0:
				tsk.Hint.Workload = rng.Float64() * 64
			}
			// The view Place read stays in loadBuf; its mean shows in the
			// load term the score hook reports for the target.
			target := s.Place(tsk, origin)
			wm, _ := ref.loadView(origin)
			if !sameBits(s.loadBuf, ref.loadBuf) {
				t.Fatalf("seed %d op %d: the view Place read from origin %d (view state %d) differs from the dense table's",
					seed, op, origin, s.view)
			}
			if want := s.hybridB * (ref.loadBuf[target]/wm - 1); math.Float64bits(gotLoad) != math.Float64bits(want) {
				t.Fatalf("seed %d op %d: load term %v on unit %d, dense %v", seed, op, gotLoad, target, want)
			}
			observe(op)
			ref.place(origin, target, tsk.Hint.EstimatedWorkload())
		}
		endInterval()
	}
	t.Logf("%+v", c)
	for what, n := range map[string]int{
		"exact": c.exact, "denseStart": c.denseStart, "fractional": c.fractional, "bound": c.bound,
	} {
		if n < 5 {
			t.Errorf("%s intervals occurred %d times, want at least 5", what, n)
		}
	}
}
