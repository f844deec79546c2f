package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"abndp/internal/config"
	"abndp/internal/core"
	"abndp/internal/topology"
)

// denseArgmin is the placement loop argmin replaced, over costmem written
// out as one value per unit: start at home, then take each live unit, in
// unit order, whose score is strictly lower. lowestdist scores the memory
// cost alone, hybrid adds the load term.
func denseArgmin(s *Scheduler, vec []float64, home topology.UnitID, mean float64, hybrid bool) (topology.UnitID, float64, float64) {
	if !hybrid {
		best, bestCost := home, vec[home]
		for u, c := range vec {
			if c < bestCost && s.Alive(topology.UnitID(u)) {
				best, bestCost = topology.UnitID(u), c
			}
		}
		return best, bestCost, 0
	}
	best := home
	bestMem := vec[best]
	bestLoad := s.hybridB * (s.loadBuf[best]/mean - 1)
	bestScore := bestMem + bestLoad
	for u, mem := range vec {
		if s.dead != nil && s.dead[u] {
			continue
		}
		load := s.hybridB * (s.loadBuf[u]/mean - 1)
		if score := mem + load; score < bestScore {
			best, bestScore, bestMem, bestLoad = topology.UnitID(u), score, mem, load
		}
	}
	return best, bestMem, bestLoad
}

// packForm lays out a stack form as core.StackForm documents it, from
// per-stack values and ascending listed units with their values.
func packForm(stack []float64, units []topology.UnitID, vals []float64) core.StackForm {
	f := core.StackForm{uint64(len(stack)) | uint64(len(units))<<32}
	for _, v := range stack {
		f = append(f, math.Float64bits(v))
	}
	for _, v := range vals {
		f = append(f, math.Float64bits(v))
	}
	for i := 0; i < len(units); i += 4 {
		var w uint64
		for j := i; j < len(units) && j < i+4; j++ {
			w |= uint64(units[j]) << (16 * (j - i))
		}
		f = append(f, w)
	}
	return f
}

// argminCases counts the decisions of TestTwoPhaseArgminMatchesDenseLoop
// that exercise each way the two phases can combine.
type argminCases struct {
	tieLower   int // a listed unit below phase A's unit ties its score, the minimum
	tieHigher  int // a listed unit above phase A's unit ties it
	listedTies int // two listed units below phase A's unit tie at the minimum
	listedA    int // phase A's unit is listed and wins at its own value
	homeRule   int // home scores the minimum, and so does a lower unit
	allListed  int // every unit of some stack is listed
	dead       int // a dead mask is in force
	deadHome   int // the task's home is dead
}

// TestTwoPhaseArgminMatchesDenseLoop checks the two-phase argmin against
// the dense loop it replaced, for both costmem policies, on seeded stack
// forms made to tie: small whole stack values, listed values one to three
// below them or one ulp below (which a load term can absorb, so a listed
// unit scores its stack's value), loads that are mostly equal, dead masks
// that sometimes kill the home, and a home that is sometimes one of the
// units that score the minimum. Both machines run: 8 units per stack, and
// 1, where every listed unit is its stack's only unit. Every decision must
// agree on the unit and, bit for bit, on the memory cost and load term,
// and each way of combining the phases must occur.
func TestTwoPhaseArgminMatchesDenseLoop(t *testing.T) {
	for _, perStack := range []int{8, 1} {
		cfg := config.Default()
		cfg.UnitsPerStack = perStack
		e := newEnvFor(cfg)
		for _, policy := range []config.Policy{config.PolicyLowestDist, config.PolicyHybrid} {
			t.Run(fmt.Sprintf("perstack%d/%s", perStack, policy), func(t *testing.T) {
				s := e.scheduler(policy, false)
				c := replayArgmin(t, s, policy == config.PolicyHybrid, rand.New(rand.NewSource(int64(perStack)*31+int64(len(policy)))))
				t.Logf("%+v", c)
				for name, n := range map[string]int{
					"tieLower": c.tieLower, "tieHigher": c.tieHigher, "listedTies": c.listedTies,
					"homeRule": c.homeRule, "allListed": c.allListed, "dead": c.dead, "deadHome": c.deadHome,
				} {
					if n < 20 {
						t.Errorf("case %s occurred %d times, want at least 20", name, n)
					}
				}
				// Without a load term a listed unit scores below its stack's
				// value, so phase A's unit can win listed only under hybrid.
				if policy == config.PolicyHybrid && c.listedA < 20 {
					t.Errorf("case listedA occurred %d times, want at least 20", c.listedA)
				}
			})
		}
	}
}

func replayArgmin(t *testing.T, s *Scheduler, hybrid bool, rng *rand.Rand) argminCases {
	t.Helper()
	units, per := s.units, s.perStack
	stacks := units / per
	var c argminCases
	stack := make([]float64, stacks)
	vec := make([]float64, units)
	w := make([]float64, units)
	for iter := 0; iter < 4000; iter++ {
		// Stack values, then the listing: a density, and listed values one
		// to three below their stack's, often no lower than the lowest
		// stack value, so that they tie with phase A's, or one ulp below.
		for st := range stack {
			stack[st] = float64(3 + rng.Intn(4))
		}
		lowest := stack[0]
		for _, v := range stack {
			lowest = min(lowest, v)
		}
		density := []float64{0.02, 0.05, 0.15, 0.4}[rng.Intn(4)]
		fillStack := -1
		if rng.Intn(4) == 0 {
			fillStack = rng.Intn(stacks) // list all of its units
		}
		var listedUnits []topology.UnitID
		var vals []float64
		for u := 0; u < units; u++ {
			sv := stack[u/per]
			vec[u] = sv
			if u/per != fillStack && rng.Float64() >= density {
				continue
			}
			var v float64
			switch k := rng.Intn(6); {
			case k == 0:
				v = math.Nextafter(sv, math.Inf(-1))
			case k <= 2 && sv > lowest:
				v = lowest + float64(rng.Intn(int(sv-lowest)))
			default:
				v = max(0, sv-float64(1+rng.Intn(3)))
			}
			if !(v < sv) {
				continue
			}
			listedUnits = append(listedUnits, topology.UnitID(u))
			vals = append(vals, v)
			vec[u] = v
		}
		f := packForm(stack, listedUnits, vals)

		// Dead units, and the loads: mostly equal, with a few idle or
		// busy units.
		var dead []bool
		if rng.Intn(3) > 0 {
			dead = make([]bool, units)
			for u := range dead {
				dead[u] = rng.Intn(5) == 0
			}
		}
		s.SetDeadMask(dead)
		for u := range w {
			w[u] = 64
			if k := rng.Intn(10); k == 0 {
				w[u] = 0
			} else if k == 1 {
				w[u] = 256
			}
		}
		s.Exchange(w)
		var mean float64
		if hybrid {
			var live int
			if mean, live = s.loadView(0); live == 0 {
				continue
			}
		}

		score := func(u int) float64 {
			if !hybrid {
				return vec[u]
			}
			return vec[u] + s.hybridB*(s.loadBuf[u]/mean-1)
		}
		m := math.Inf(1)
		for u := 0; u < units; u++ {
			if s.Alive(topology.UnitID(u)) {
				m = min(m, score(u))
			}
		}
		raw := topology.UnitID(rng.Intn(units))
		if rng.Intn(3) == 0 {
			// Make the home one of the units that score the minimum.
			var atMin []topology.UnitID
			for u := 0; u < units; u++ {
				if s.Alive(topology.UnitID(u)) && score(u) == m {
					atMin = append(atMin, topology.UnitID(u))
				}
			}
			if len(atMin) > 0 {
				raw = atMin[rng.Intn(len(atMin))]
			}
		}
		home := s.NearestLive(raw)
		if home < 0 {
			continue
		}

		gotU, gotMem, gotLoad := s.argmin(f, home, mean, hybrid)
		wantU, wantMem, wantLoad := denseArgmin(s, vec, home, mean, hybrid)
		if gotU != wantU || math.Float64bits(gotMem) != math.Float64bits(wantMem) ||
			math.Float64bits(gotLoad) != math.Float64bits(wantLoad) {
			t.Fatalf("iteration %d (home %d, %d listed): argmin (%d, %v, %v), dense loop (%d, %v, %v)",
				iter, home, len(listedUnits), gotU, gotMem, gotLoad, wantU, wantMem, wantLoad)
		}

		// Classify the decision.
		listed := make(map[topology.UnitID]bool, len(listedUnits))
		for _, u := range listedUnits {
			listed[u] = true
		}
		a, aScore := -1, math.Inf(1)
		for u := 0; u < units; u++ {
			if !s.Alive(topology.UnitID(u)) {
				continue
			}
			bound := stack[u/per]
			if hybrid {
				bound += s.hybridB * (s.loadBuf[u]/mean - 1)
			}
			if bound < aScore {
				a, aScore = u, bound
			}
		}
		homeAtMin := score(int(home)) == m
		if homeAtMin {
			for u := 0; u < int(home); u++ {
				if s.Alive(topology.UnitID(u)) && score(u) == m {
					c.homeRule++
					break
				}
			}
		}
		if !homeAtMin && aScore == m {
			for _, u := range listedUnits {
				if s.Alive(u) && score(int(u)) == m && int(u) < a {
					c.tieLower++
					break
				}
			}
			for _, u := range listedUnits {
				if s.Alive(u) && score(int(u)) == m && int(u) > a {
					c.tieHigher++
					break
				}
			}
			if listed[topology.UnitID(a)] && wantU == topology.UnitID(a) {
				c.listedA++
			}
		}
		if !homeAtMin {
			below := 0
			for _, u := range listedUnits {
				if s.Alive(u) && score(int(u)) == m && (aScore > m || int(u) < a) {
					below++
				}
			}
			if below >= 2 {
				c.listedTies++
			}
		}
		if fillStack >= 0 || per == 1 && len(listedUnits) > 0 {
			c.allListed++
		}
		if dead != nil {
			c.dead++
			if dead[raw] {
				c.deadHome++
			}
		}
	}
	return c
}
