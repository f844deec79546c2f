package sched

import (
	"math"
	"math/rand"
	"testing"

	"abndp/internal/check"
	"abndp/internal/config"
	"abndp/internal/core"
	"abndp/internal/mem"
	"abndp/internal/noc"
	"abndp/internal/task"
	"abndp/internal/topology"
)

type env struct {
	cfg   config.Config
	topo  *topology.Topology
	space *mem.Space
	noc   *noc.Model
	camps *core.CampMap
}

func newEnv() *env {
	cfg := config.Default()
	topo := topology.New(topology.Config{
		MeshX: cfg.MeshX, MeshY: cfg.MeshY,
		UnitsPerStack: cfg.UnitsPerStack, Groups: cfg.Groups(),
	})
	space := mem.NewSpace(topo.Units(), cfg.UnitBytes)
	return &env{
		cfg: cfg, topo: topo, space: space,
		noc:   noc.New(topo, &cfg),
		camps: core.NewCampMap(topo, space, true),
	}
}

func (e *env) scheduler(policy string, campAware bool) *Scheduler {
	cost := core.NewCostModel(e.noc, e.camps, campAware)
	return New(policy, cost, e.camps, e.noc, &e.cfg)
}

// lineOn returns a line homed on unit u.
func (e *env) lineOn(u topology.UnitID) mem.Line {
	return mem.LineOf(mem.Addr(uint64(u)*e.cfg.UnitBytes + 4096))
}

func TestPolicyFor(t *testing.T) {
	cases := map[config.Design]string{
		config.DesignB:  "home",
		config.DesignSm: "lowestdist",
		config.DesignSl: "lowestdist",
		config.DesignSh: "hybrid",
		config.DesignC:  "lowestdist",
		config.DesignO:  "hybrid",
	}
	for d, want := range cases {
		if got := PolicyFor(d); got != want {
			t.Fatalf("PolicyFor(%v) = %q, want %q", d, got, want)
		}
	}
}

// An explicit Config.SchedPolicy overrides the design's Table 2 policy.
func TestPolicyNameOverride(t *testing.T) {
	cfg := config.Default()
	if got := PolicyName(&cfg, config.DesignSm); got != "lowestdist" {
		t.Fatalf("default PolicyName = %q, want lowestdist", got)
	}
	cfg.SchedPolicy = "loadonly"
	if got := PolicyName(&cfg, config.DesignSm); got != "loadonly" {
		t.Fatalf("override PolicyName = %q, want loadonly", got)
	}
}

func TestHomePolicy(t *testing.T) {
	e := newEnv()
	s := e.scheduler("home", false)
	for _, u := range []topology.UnitID{0, 17, 127} {
		tsk := &task.Task{Hint: task.Hint{Lines: []mem.Line{e.lineOn(u), e.lineOn(0)}}}
		if got := s.Place(tsk, 5); got != u {
			t.Fatalf("home policy placed on %d, want %d (main element home)", got, u)
		}
	}
}

func TestLowestDistanceSingleLine(t *testing.T) {
	e := newEnv()
	s := e.scheduler("lowestdist", false)
	u := topology.UnitID(99)
	tsk := &task.Task{Hint: task.Hint{Lines: []mem.Line{e.lineOn(u)}}}
	if got := s.Place(tsk, 0); got != u {
		t.Fatalf("single-line lowest distance placed on %d, want %d", got, u)
	}
}

func TestLowestDistanceIsArgmin(t *testing.T) {
	e := newEnv()
	s := e.scheduler("lowestdist", false)
	cost := core.NewCostModel(e.noc, e.camps, false)
	lines := []mem.Line{e.lineOn(3), e.lineOn(77), e.lineOn(120)}
	tsk := &task.Task{Hint: task.Hint{Lines: lines}}
	got := s.Place(tsk, 0)
	gotCost := cost.MemCostLines(lines, got)
	for u := 0; u < e.topo.Units(); u++ {
		if c := cost.MemCostLines(lines, topology.UnitID(u)); c < gotCost {
			t.Fatalf("unit %d has cost %v < chosen %d's %v", u, c, got, gotCost)
		}
	}
}

func TestHybridReducesToLowestDistanceWhenBalanced(t *testing.T) {
	e := newEnv()
	sh := e.scheduler("hybrid", false)
	sm := e.scheduler("lowestdist", false)
	// Uniform load: costload is 0 everywhere, so hybrid == lowest distance.
	w := make([]float64, e.topo.Units())
	for i := range w {
		w[i] = 100
	}
	for i := 0; i < 50; i++ {
		// Refresh the snapshot each time: Place accumulates forwarding
		// deltas that would otherwise perturb tie-breaking.
		sh.Exchange(w)
		lines := []mem.Line{e.lineOn(topology.UnitID(i % 128)), e.lineOn(topology.UnitID((i * 7) % 128))}
		a := sh.Place(&task.Task{Hint: task.Hint{Lines: lines}}, 0)
		b := sm.Place(&task.Task{Hint: task.Hint{Lines: lines}}, 0)
		if a != b {
			t.Fatalf("case %d: hybrid=%d lowest=%d under uniform load", i, a, b)
		}
	}
}

func TestHybridAvoidsOverloadedUnit(t *testing.T) {
	e := newEnv()
	s := e.scheduler("hybrid", false)
	home := topology.UnitID(42)
	// The data's home is massively overloaded; everyone else is idle.
	w := make([]float64, e.topo.Units())
	w[home] = 1e7
	s.Exchange(w)
	tsk := &task.Task{Hint: task.Hint{Lines: []mem.Line{e.lineOn(home)}}}
	if got := s.Place(tsk, 0); got == home {
		t.Fatal("hybrid policy kept the task on a hotspot unit")
	}
}

func TestHybridZeroWeightIgnoresLoad(t *testing.T) {
	e := newEnv()
	cost := core.NewCostModel(e.noc, e.camps, false)
	cfg := e.cfg
	cfg.HybridAlpha = 0 // B = alpha * Dinter = 0
	s := New("hybrid", cost, e.camps, e.noc, &cfg)
	home := topology.UnitID(42)
	w := make([]float64, e.topo.Units())
	w[home] = 1e7
	s.Exchange(w)
	tsk := &task.Task{Hint: task.Hint{Lines: []mem.Line{e.lineOn(home)}}}
	if got := s.Place(tsk, 0); got != home {
		t.Fatalf("alpha=0 hybrid placed on %d, want home %d", got, home)
	}
}

func TestDeltaPreventsHerding(t *testing.T) {
	e := newEnv()
	s := e.scheduler("hybrid", false)
	// One idle unit among loaded ones: after enough forwarded tasks, the
	// origin's delta should steer placements elsewhere.
	w := make([]float64, e.topo.Units())
	for i := range w {
		w[i] = 1000
	}
	idle := topology.UnitID(100)
	w[idle] = 0
	s.Exchange(w)
	counts := map[topology.UnitID]int{}
	for i := 0; i < 200; i++ {
		// Data lives on the idle unit's opposite corner, so placement is
		// driven by load, not distance.
		tsk := &task.Task{Hint: task.Hint{Lines: []mem.Line{e.lineOn(idle)}, Workload: 100}}
		counts[s.Place(tsk, 0)]++
	}
	if counts[idle] == 200 {
		t.Fatal("all 200 tasks herded onto the one idle unit despite deltas")
	}
	if counts[idle] == 0 {
		t.Fatal("idle unit never chosen; load term inactive?")
	}
}

func TestExchangeResetsDeltas(t *testing.T) {
	e := newEnv()
	s := e.scheduler("hybrid", false)
	w := make([]float64, e.topo.Units())
	for i := range w {
		w[i] = 1000
	}
	idle := topology.UnitID(100)
	w[idle] = 0
	s.Exchange(w)
	tsk := func() *task.Task {
		return &task.Task{Hint: task.Hint{Lines: []mem.Line{e.lineOn(idle)}, Workload: 1e6}}
	}
	first := s.Place(tsk(), 0)
	if first != idle {
		t.Fatalf("first placement = %d, want idle %d", first, idle)
	}
	// Huge delta now biases away from idle...
	second := s.Place(tsk(), 0)
	if second == idle {
		t.Fatal("delta should have steered the second task away")
	}
	// ...until the next exchange clears it.
	s.Exchange(w)
	if got := s.Place(tsk(), 0); got != idle {
		t.Fatalf("after exchange, placement = %d, want idle %d", got, idle)
	}
}

func TestCampAwarePlacementCanBeatHomeDistance(t *testing.T) {
	e := newEnv()
	aware := e.scheduler("lowestdist", true)
	cost := core.NewCostModel(e.noc, e.camps, true)
	costHome := core.NewCostModel(e.noc, e.camps, false)
	// Two lines homed on distant units: camp-aware placement should find
	// a unit whose camp-based cost is <= the best home-based cost.
	lines := []mem.Line{e.lineOn(0), e.lineOn(127)}
	got := aware.Place(&task.Task{Hint: task.Hint{Lines: lines}}, 0)
	bestHome := 1e18
	for u := 0; u < e.topo.Units(); u++ {
		if c := costHome.MemCostLines(lines, topology.UnitID(u)); c < bestHome {
			bestHome = c
		}
	}
	if c := cost.MemCostLines(lines, got); c > bestHome {
		t.Fatalf("camp-aware cost %v worse than best home-only %v", c, bestHome)
	}
}

func TestPickVictim(t *testing.T) {
	e := newEnv()
	lens := make([]int, e.topo.Units())
	if got := PickVictim(0, lens, 1, e.noc); got != -1 {
		t.Fatalf("victim in idle system = %d, want -1", got)
	}
	lens[50] = 10
	lens[60] = 30
	if got := PickVictim(0, lens, 1, e.noc); got != 60 {
		t.Fatalf("victim = %d, want 60 (longest queue)", got)
	}
	// Thief never picks itself even if longest.
	lens[0] = 100
	if got := PickVictim(0, lens, 1, e.noc); got != 60 {
		t.Fatalf("victim = %d, want 60 (not self)", got)
	}
	// Queues at or below minQueue are not victims.
	for i := range lens {
		lens[i] = 0
	}
	lens[5] = 1
	if got := PickVictim(0, lens, 1, e.noc); got != -1 {
		t.Fatalf("victim = %d, want -1 (below threshold)", got)
	}
}

// TestScoreHookObservesWithoutPerturbing checks the observability hook: it
// must see every decision with the chosen unit's score components, and
// installing it must not change any placement.
func TestScoreHookObservesWithoutPerturbing(t *testing.T) {
	e := newEnv()
	w := make([]float64, e.topo.Units())
	for i := range w {
		w[i] = float64((i * 13) % 997)
	}
	plain, hooked := e.scheduler("hybrid", true), e.scheduler("hybrid", true)
	plain.Exchange(w)
	hooked.Exchange(w)
	cost := core.NewCostModel(e.noc, e.camps, true)

	type decision struct {
		origin, target topology.UnitID
		mem, load      float64
	}
	var seen []decision
	hooked.SetScoreHook(func(origin, target topology.UnitID, mem, load float64) {
		seen = append(seen, decision{origin, target, mem, load})
	})

	const n = 100
	for i := 0; i < n; i++ {
		lines := []mem.Line{e.lineOn(topology.UnitID(i % 128)), e.lineOn(topology.UnitID((i * 31) % 128))}
		origin := topology.UnitID(i % 128)
		a := plain.Place(&task.Task{Hint: task.Hint{Lines: lines}}, origin)
		b := hooked.Place(&task.Task{Hint: task.Hint{Lines: lines}}, origin)
		if a != b {
			t.Fatalf("case %d: hook changed placement %d -> %d", i, a, b)
		}
		d := seen[len(seen)-1]
		if d.origin != origin || d.target != b {
			t.Fatalf("case %d: hook saw (%d -> %d), want (%d -> %d)", i, d.origin, d.target, origin, b)
		}
		if d.mem != cost.MemCostLines(lines, b) {
			t.Fatalf("case %d: hook mem cost %v != recomputed %v", i, d.mem, cost.MemCostLines(lines, b))
		}
	}
	if len(seen) != n {
		t.Fatalf("hook saw %d decisions, want %d", len(seen), n)
	}
	var anyLoad bool
	for _, d := range seen {
		if d.load != 0 {
			anyLoad = true
		}
	}
	if !anyLoad {
		t.Error("hybrid load term was zero for every decision under skewed load")
	}

	// Home and lowest-distance policies report through the same hook.
	for _, kind := range []string{"home", "lowestdist"} {
		s := e.scheduler(kind, false)
		calls := 0
		s.SetScoreHook(func(_, _ topology.UnitID, _, load float64) {
			calls++
			if load != 0 {
				t.Errorf("kind %v reported nonzero load term %v", kind, load)
			}
		})
		s.Place(&task.Task{Hint: task.Hint{Lines: []mem.Line{e.lineOn(7)}}}, 3)
		if calls != 1 {
			t.Fatalf("kind %v: hook called %d times, want 1", kind, calls)
		}
	}
}

// Regression: with every unit dead, placeHybrid divided the load sum by
// live == 0, poisoning the mean to NaN so every score comparison failed and
// the stale home index (NearestLive = -1) went out of bounds. All policies
// must now return the explicit -1 verdict instead of panicking.
func TestPlaceAllUnitsDeadReturnsVerdict(t *testing.T) {
	e := newEnv()
	for _, kind := range []string{"home", "lowestdist", "hybrid", "loadonly"} {
		s := e.scheduler(kind, false)
		s.SetAudit(check.New(), nil)
		dead := make([]bool, e.topo.Units())
		for i := range dead {
			dead[i] = true
		}
		s.SetDeadMask(dead)
		w := make([]float64, e.topo.Units())
		for i := range w {
			w[i] = float64(i)
		}
		s.Exchange(w)
		tsk := &task.Task{Hint: task.Hint{Lines: []mem.Line{e.lineOn(42)}, Workload: 10}}
		got := s.Place(tsk, 3)
		if got != -1 {
			t.Fatalf("kind %v: Place with all units dead = %d, want -1", kind, got)
		}
		// The -1 verdict must not have recorded any forwarded load.
		for o, row := range s.rows {
			if len(row) != 0 {
				t.Fatalf("kind %v: origin %d's row is %v after refused placement", kind, o, row)
			}
		}
		if !s.audit.Ok() {
			t.Fatalf("kind %v: audit flagged the all-dead verdict: %v", kind, s.audit.Violations())
		}
	}
}

// A unit whose effective load goes non-finite (e.g. a poisoned snapshot
// entry) is clamped to 0 and recorded as a violation; placement still
// succeeds and the chosen unit's score terms stay finite. Regression for
// the silent-degradation bug: before the degraded counter existed, a run
// without an armed checker clamped the load half of the policy away with
// no trace at all — DegradedLoads must now count every clamp whether or
// not the checker is armed.
func TestHybridClampsNonFiniteLoad(t *testing.T) {
	for _, policy := range []string{"hybrid", "loadonly"} {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			e := newEnv()
			s := e.scheduler(policy, false)
			s.SetAudit(check.New(), nil)
			w := make([]float64, e.topo.Units())
			for i := range w {
				w[i] = 100
			}
			s.Exchange(w)
			s.snapW[7] = bad // corrupt after Exchange so only Place sees it
			tsk := &task.Task{Hint: task.Hint{Lines: []mem.Line{e.lineOn(42)}}}
			got := s.Place(tsk, 0)
			if got < 0 {
				t.Fatalf("%s, load %v: placement refused", policy, bad)
			}
			found := false
			for _, v := range s.audit.Violations() {
				if v.Rule == "sched.load" {
					found = true
				}
				if v.Rule == "sched.memcost" || v.Rule == "sched.loadterm" {
					t.Fatalf("%s, load %v: clamp leaked into the decision: %v", policy, bad, v)
				}
			}
			if !found {
				t.Fatalf("%s, load %v: no sched.load violation recorded", policy, bad)
			}
			if n := s.DegradedLoads(); n != 1 {
				t.Fatalf("%s, load %v: DegradedLoads = %d, want 1", policy, bad, n)
			}
		}
	}
}

// The degraded counter does not depend on the checker: an unarmed
// scheduler counts the same clamps an armed one reports.
func TestDegradedLoadsCountsWithoutAudit(t *testing.T) {
	e := newEnv()
	s := e.scheduler("hybrid", false)
	w := make([]float64, e.topo.Units())
	for i := range w {
		w[i] = 100
	}
	s.Exchange(w)
	s.snapW[7] = math.NaN()
	tsk := &task.Task{Hint: task.Hint{Lines: []mem.Line{e.lineOn(42)}}}
	for i := 0; i < 3; i++ {
		if got := s.Place(tsk, 0); got < 0 {
			t.Fatalf("placement %d refused", i)
		}
	}
	if n := s.DegradedLoads(); n != 3 {
		t.Fatalf("DegradedLoads = %d, want 3 (one per Place)", n)
	}
}

// loadonly ignores data distance entirely: with one idle unit in a loaded
// machine it must choose the idle unit no matter where the data lives, and
// under uniform load it falls back to the main element's home tie-break.
func TestLoadOnlyPolicy(t *testing.T) {
	e := newEnv()
	s := e.scheduler("loadonly", false)
	if got := s.Param("floor"); got != 32 {
		t.Fatalf("default floor param = %v, want 32", got)
	}
	w := make([]float64, e.topo.Units())
	for i := range w {
		w[i] = 1000
	}
	idle := topology.UnitID(100)
	w[idle] = 0
	s.Exchange(w)
	// Data on the far corner: lowestdist would never pick the idle unit.
	tsk := &task.Task{Hint: task.Hint{Lines: []mem.Line{e.lineOn(0)}}}
	if got := s.Place(tsk, 0); got != idle {
		t.Fatalf("loadonly placed on %d, want idle unit %d", got, idle)
	}
	// Uniform load: every load term ties, so the home tie-break decides.
	for i := range w {
		w[i] = 1000
	}
	s.Exchange(w)
	home := topology.UnitID(77)
	tsk = &task.Task{Hint: task.Hint{Lines: []mem.Line{e.lineOn(home)}}}
	if got := s.Place(tsk, 3); got != home {
		t.Fatalf("uniform-load loadonly placed on %d, want home %d", got, home)
	}
}

// A cfg.PolicyParams override reaches the scheduler only when the config
// actually selects that policy by name.
func TestPolicyParamOverride(t *testing.T) {
	e := newEnv()
	cfg := e.cfg
	cfg.SchedPolicy = "loadonly"
	cfg.PolicyParams = map[string]float64{"floor": 128}
	cost := core.NewCostModel(e.noc, e.camps, false)
	s := New("loadonly", cost, e.camps, e.noc, &cfg)
	if got := s.Param("floor"); got != 128 {
		t.Fatalf("overridden floor = %v, want 128", got)
	}
	// Same override without SchedPolicy selecting loadonly: default wins.
	cfg.SchedPolicy = ""
	s = New("loadonly", cost, e.camps, e.noc, &cfg)
	if got := s.Param("floor"); got != 32 {
		t.Fatalf("floor without matching SchedPolicy = %v, want default 32", got)
	}
}

// pickVictimRef is an independent brute-force oracle for the documented
// PickVictim contract: longest queue above minQueue, ties toward the lowest
// steal latency, then the lowest unit ID; -1 iff no unit qualifies.
func pickVictimRef(thief topology.UnitID, lens []int, minQueue int, n *noc.Model) topology.UnitID {
	best := topology.UnitID(-1)
	for u := range lens {
		uid := topology.UnitID(u)
		if uid == thief || lens[u] <= minQueue {
			continue
		}
		if best < 0 {
			best = uid
			continue
		}
		switch {
		case lens[u] > lens[best]:
			best = uid
		case lens[u] == lens[best] && n.Latency(thief, uid) < n.Latency(thief, best):
			best = uid
			// equal length and latency: keep the lower ID (u iterates upward)
		}
	}
	return best
}

// Property: PickVictim is deterministic and matches the brute-force oracle
// over random queue states, thieves, and thresholds.
func TestPickVictimMatchesOracle(t *testing.T) {
	e := newEnv()
	units := e.topo.Units()
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lens := make([]int, units)
		for i := range lens {
			// Coarse buckets force plenty of exact ties.
			lens[i] = r.Intn(4) * 5
		}
		thief := topology.UnitID(r.Intn(units))
		minQ := r.Intn(8)
		got := PickVictim(thief, lens, minQ, e.noc)
		if got != PickVictim(thief, lens, minQ, e.noc) {
			return false // nondeterministic
		}
		if got != pickVictimRef(thief, lens, minQ, e.noc) {
			return false
		}
		// -1 exactly when no non-thief queue exceeds the threshold.
		any := false
		for u, l := range lens {
			if topology.UnitID(u) != thief && l > minQ {
				any = true
			}
		}
		if any == (got == -1) {
			return false
		}
		// A victim is never the thief and always exceeds the threshold.
		return got == -1 || (got != thief && lens[got] > minQ)
	}
	for i := 0; i < 200; i++ {
		if !f(rng.Int63()) {
			t.Fatalf("PickVictim diverged from oracle (iteration %d)", i)
		}
	}
}

// Ties break by steal latency before unit ID: two equally long queues on
// units at different distances must resolve to the nearer one even when the
// farther one has the lower ID.
func TestPickVictimPrefersNearerOnTies(t *testing.T) {
	e := newEnv()
	units := e.topo.Units()
	thief := topology.UnitID(units - 1) // far corner, so low IDs are distant
	lens := make([]int, units)
	near := topology.UnitID(units - 2)
	far := topology.UnitID(0)
	if e.noc.Latency(thief, near) >= e.noc.Latency(thief, far) {
		t.Fatalf("test topology assumption broken: near %d not nearer than far %d", near, far)
	}
	lens[near], lens[far] = 20, 20
	if got := PickVictim(thief, lens, 1, e.noc); got != near {
		t.Fatalf("victim = %d, want nearer unit %d on equal queues", got, near)
	}
	// Lowest ID wins only when both length and latency tie.
	lens[near] = 0
	mirror := mirrorUnit(e, thief, far)
	if mirror >= 0 && mirror != far {
		lens[mirror] = 20
		want := far
		if mirror < want {
			want = mirror
		}
		if got := PickVictim(thief, lens, 1, e.noc); got != want {
			t.Fatalf("victim = %d, want lowest-ID %d among equal-latency ties", got, want)
		}
	}
}

// mirrorUnit finds a unit distinct from u with the same latency from the
// thief, or -1 if none exists.
func mirrorUnit(e *env, thief, u topology.UnitID) topology.UnitID {
	want := e.noc.Latency(thief, u)
	for v := 0; v < e.topo.Units(); v++ {
		if uid := topology.UnitID(v); uid != u && uid != thief && e.noc.Latency(thief, uid) == want {
			return uid
		}
	}
	return -1
}

func TestPlaceIsDeterministic(t *testing.T) {
	e := newEnv()
	mk := func() *Scheduler { return e.scheduler("hybrid", true) }
	w := make([]float64, e.topo.Units())
	for i := range w {
		w[i] = float64(i % 7)
	}
	s1, s2 := mk(), mk()
	s1.Exchange(w)
	s2.Exchange(w)
	for i := 0; i < 100; i++ {
		lines := []mem.Line{e.lineOn(topology.UnitID(i % 128)), e.lineOn(topology.UnitID((i * 31) % 128))}
		a := s1.Place(&task.Task{Hint: task.Hint{Lines: lines}}, topology.UnitID(i%128))
		b := s2.Place(&task.Task{Hint: task.Hint{Lines: lines}}, topology.UnitID(i%128))
		if a != b {
			t.Fatalf("case %d: nondeterministic placement %d vs %d", i, a, b)
		}
	}
}
