package sched

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"abndp/internal/config"
	"abndp/internal/mem"
	"abndp/internal/task"
	"abndp/internal/topology"
)

// denseDelta is the reference model for the scheduler's forwarded-load
// rows: the units x units table they replaced, where delta[origin*units+u]
// is the load origin has forwarded to u since the last exchange, and the
// loadView body that read it. It shares the scheduler's snapshot, dead
// mask and service rates, and keeps its own view and clamp count, so the
// two can be compared after every operation. Like the table it models, it
// is allocated by its first loadView and skipped by place until then.
type denseDelta struct {
	s        *Scheduler
	delta    []float64
	loadBuf  []float64
	degraded int64
}

func (r *denseDelta) exchange() { clear(r.delta) }

func (r *denseDelta) place(origin, target topology.UnitID, w float64) {
	if r.delta != nil && target >= 0 {
		r.delta[int(origin)*r.s.units+int(target)] += w
	}
}

func (r *denseDelta) loadView(origin topology.UnitID) (mean float64, live int) {
	s := r.s
	if r.delta == nil {
		r.delta = make([]float64, s.units*s.units)
	}
	d := r.delta[int(origin)*s.units : (int(origin)+1)*s.units]
	amp := float64(s.units)
	var sum float64
	for u := 0; u < s.units; u++ {
		w := s.snapW[u] + d[u]*amp
		if s.rates != nil && s.rates[u] > 0 {
			w /= s.rates[u]
		}
		if math.IsNaN(w) || math.IsInf(w, 0) {
			r.degraded++
			w = 0
		}
		r.loadBuf[u] = w
		if s.dead != nil && s.dead[u] {
			continue
		}
		sum += w
		live++
	}
	if live == 0 {
		return 0, 0
	}
	mean = sum / float64(live)
	if mean < hybridMeanFloor {
		mean = hybridMeanFloor
	}
	return mean, live
}

// sameBits reports whether two float slices are equal bit for bit.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// The forwarded-load rows must be observationally identical to the dense
// table: over seeded streams of placements and exchanges, with dead masks,
// service rates and poisoned snapshot entries switched in and out, the
// effective load view, its mean and live count, and the clamp count match
// the reference bit for bit after every placement. Under hybrid and
// loadonly the view Place itself computed is compared too; under home and
// lowestdist, which never read loads, the rows and the table exist only
// once the test's own loadView calls have built them.
func TestForwardRowsMatchDenseTable(t *testing.T) {
	const seeds, ops = 3, 4000
	e := newEnv()
	units := e.topo.Units()
	for _, policy := range config.Policies {
		for seed := int64(1); seed <= seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := e.scheduler(policy, seed%2 == 0)
			ref := &denseDelta{s: s, loadBuf: make([]float64, units)}
			readsLoad := policy == "hybrid" || policy == "loadonly"
			w := make([]float64, units)
			origins := []topology.UnitID{0, 5, 63, 127}
			for op := 0; op < ops; op++ {
				switch r := rng.Intn(1000); {
				case r < 8:
					for i := range w {
						w[i] = rng.Float64() * 400
					}
					if rng.Intn(3) == 0 {
						w[rng.Intn(units)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
					}
					s.Exchange(w)
					ref.exchange()
					continue
				case r < 11:
					var dead []bool
					if rng.Intn(3) > 0 {
						dead = make([]bool, units)
						for i := range dead {
							dead[i] = rng.Intn(8) == 0 || r == 10 // now and then every unit
						}
					}
					s.SetDeadMask(dead)
					continue
				case r < 14:
					var rates []float64
					if rng.Intn(3) > 0 {
						rates = make([]float64, units)
						for i := range rates {
							switch rng.Intn(20) {
							case 0:
								rates[i] = 0 // no estimate yet: ignored
							case 1:
								rates[i] = 1e-310 // a stalled unit: an infinite load
							default:
								rates[i] = 0.25 + rng.Float64()*1.75
							}
						}
					}
					s.SetServiceRates(rates)
					continue
				}
				origin := origins[rng.Intn(len(origins))]
				if rng.Intn(4) == 0 {
					origin = topology.UnitID(rng.Intn(units))
				}
				lines := make([]mem.Line, 1+rng.Intn(4))
				for i := range lines {
					lines[i] = e.lineOn(topology.UnitID(rng.Intn(units)))
				}
				tsk := &task.Task{Hint: task.Hint{Lines: lines}}
				if rng.Intn(2) == 0 {
					tsk.Hint.Workload = rng.Float64() * 64
				}
				target := s.Place(tsk, origin)
				if readsLoad {
					ref.loadView(origin)
					if !sameBits(s.loadBuf, ref.loadBuf) {
						t.Fatalf("%s seed %d op %d: the view Place read from origin %d differs from the dense table's",
							policy, seed, op, origin)
					}
				}
				ref.place(origin, target, tsk.Hint.EstimatedWorkload())

				view := origins[rng.Intn(len(origins))]
				gm, gl := s.loadView(view)
				wm, wl := ref.loadView(view)
				if math.Float64bits(gm) != math.Float64bits(wm) || gl != wl || !sameBits(s.loadBuf, ref.loadBuf) ||
					s.DegradedLoads() != ref.degraded {
					t.Fatalf("%s seed %d op %d: origin %d view: mean %v live %d degraded %d, dense table %v %d %d (loads equal %v)",
						policy, seed, op, view, gm, gl, s.DegradedLoads(), wm, wl, ref.degraded, sameBits(s.loadBuf, ref.loadBuf))
				}
				for _, x := range s.fwdBuf {
					if x != 0 {
						t.Fatalf("%s seed %d op %d: loadView left its scratch dirty", policy, seed, op)
					}
				}
			}
		}
	}
}

// Only the load-reading policies keep forwarded-load rows: under home and
// lowestdist, placement allocates nothing and an exchange leaves the rows
// unallocated, while the first hybrid or loadonly placement builds them,
// for under 4 KiB (the units x units table it replaced took 128 KiB on
// Table 1's machine), and records the placement in its origin's row.
func TestForwardRowsOnlyForLoadPolicies(t *testing.T) {
	e := newEnv()
	w := make([]float64, e.topo.Units())
	for i := range w {
		w[i] = float64(i % 5)
	}
	lines := []mem.Line{e.lineOn(3), e.lineOn(40), e.lineOn(99)}
	for _, policy := range []config.Policy{"home", "lowestdist"} {
		s := e.scheduler(policy, false)
		s.Exchange(w)
		tsk := &task.Task{Hint: task.Hint{Lines: lines}}
		origin := topology.UnitID(0)
		n := testing.AllocsPerRun(100, func() {
			s.Place(tsk, origin)
			origin = (origin + 1) % 128
		})
		s.Exchange(w)
		if n != 0 || s.rows != nil {
			t.Errorf("%s: Place allocated %v objects, rows allocated %v; want 0 and false",
				policy, n, s.rows != nil)
		}
	}
	for _, policy := range []config.Policy{"hybrid", "loadonly"} {
		s := e.scheduler(policy, false)
		s.Exchange(w)
		tsk := &task.Task{Hint: task.Hint{Lines: lines}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		target := s.Place(tsk, 7)
		runtime.ReadMemStats(&after)
		b := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: the first Place allocated %d bytes", policy, b)
		if b >= 4<<10 {
			t.Errorf("%s: the first Place allocated %d bytes, want under 4 KiB", policy, b)
		}
		if len(s.rows) != e.topo.Units() {
			t.Fatalf("%s: %d rows after a placement, want %d", policy, len(s.rows), e.topo.Units())
		}
		if row := s.rows[7]; len(row) != 1 || row[0] != (forward{target, 3}) {
			t.Errorf("%s: origin 7's row is %v, want [{%d 3}]", policy, row, target)
		}
	}
}
