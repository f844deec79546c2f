package core

import (
	"testing"
	"testing/quick"

	"abndp/internal/config"
	"abndp/internal/mem"
	"abndp/internal/noc"
	"abndp/internal/topology"
)

type env struct {
	cfg   config.Config
	topo  *topology.Topology
	space *mem.Space
	noc   *noc.Model
}

func newEnv(skewed bool) (*env, *CampMap) {
	e := newEnvFor(config.Default())
	return e, NewCampMap(e.topo, e.space, skewed)
}

// newEnvFor builds the machine cfg describes: its topology, address space
// and interconnect.
func newEnvFor(cfg config.Config) *env {
	topo := topology.New(topology.Config{
		MeshX: cfg.MeshX, MeshY: cfg.MeshY,
		UnitsPerStack: cfg.UnitsPerStack, Groups: cfg.Groups(), Torus: cfg.Torus,
	})
	space := mem.NewSpace(topo.Units(), cfg.UnitBytes)
	return &env{cfg: cfg, topo: topo, space: space, noc: noc.New(topo, &cfg)}
}

func TestCampDeterminism(t *testing.T) {
	_, cm := newEnv(true)
	for l := mem.Line(0); l < 1000; l += 37 {
		a := cm.Locations(l)
		b := cm.Locations(l)
		if len(a) != len(b) {
			t.Fatal("location count changed between calls")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("line %d: nondeterministic locations %v vs %v", l, a, b)
			}
		}
	}
}

func TestOneLocationPerGroup(t *testing.T) {
	e, cm := newEnv(true)
	for l := mem.Line(1); l < 100000; l *= 3 {
		locs := cm.Locations(l)
		if len(locs) != e.topo.Groups() {
			t.Fatalf("line %d has %d locations, want %d", l, len(locs), e.topo.Groups())
		}
		if locs[0] != cm.Home(l) {
			t.Fatalf("line %d: first location %d is not home %d", l, locs[0], cm.Home(l))
		}
		seen := map[int]bool{}
		for _, u := range locs {
			g := e.topo.GroupOf(u)
			if seen[g] {
				t.Fatalf("line %d: two locations in group %d", l, g)
			}
			seen[g] = true
		}
	}
}

// AppendLocations and Nearest inline Camp's per-group index arithmetic
// (hoisting the per-line hash out of their group loops); this cross-check
// pins the inlined copies to Camp itself for both mapping modes.
func TestLocationsMatchCampPerGroup(t *testing.T) {
	for _, skewed := range []bool{true, false} {
		e, cm := newEnv(skewed)
		for i := 0; i < 2000; i++ {
			l := mem.Line(i * 6151)
			locs := cm.Locations(l)
			for _, u := range locs {
				if cm.Camp(l, e.topo.GroupOf(u)) != u {
					t.Fatalf("skewed=%v line %d: location %d != Camp in group %d",
						skewed, l, u, e.topo.GroupOf(u))
				}
			}
			from := topology.UnitID(i % e.topo.Units())
			near, _ := cm.Nearest(e.noc, l, from)
			if cm.Camp(l, e.topo.GroupOf(near)) != near {
				t.Fatalf("skewed=%v line %d: Nearest %d is not that group's camp", skewed, l, near)
			}
		}
	}
}

func TestCampInHomeGroupIsHome(t *testing.T) {
	e, cm := newEnv(true)
	for l := mem.Line(0); l < 5000; l += 113 {
		home := cm.Home(l)
		hg := e.topo.GroupOf(home)
		if cm.Camp(l, hg) != home {
			t.Fatalf("line %d: camp in home group %d should be the home", l, hg)
		}
	}
}

func TestCampDistributionIsRoughlyUniform(t *testing.T) {
	e, cm := newEnv(true)
	counts := make([]int, e.topo.Units())
	totalLines := e.space.TotalBytes() / mem.LineSize
	const lines = 50000
	for i := 0; i < lines; i++ {
		// Spread lines uniformly over the whole address space so that
		// homes cover all groups.
		l := mem.Line((uint64(i) * 0x9e3779b97f4a7c15) % totalLines)
		hg := e.topo.GroupOf(cm.Home(l))
		for g := 0; g < e.topo.Groups(); g++ {
			if g == hg {
				continue
			}
			counts[cm.Camp(l, g)]++
		}
	}
	// Each line contributes C = groups-1 camp assignments, uniformly over
	// the units outside its home group.
	want := float64(lines*(e.topo.Groups()-1)) / float64(e.topo.Units())
	for u, c := range counts {
		if float64(c) < 0.7*want || float64(c) > 1.3*want {
			t.Fatalf("unit %d got %d camp assignments, want ~%.0f", u, c, want)
		}
	}
}

func TestSkewedMappingDiffersAcrossGroups(t *testing.T) {
	e, cm := newEnv(true)
	_, cmID := newEnv(false)
	// Under identical mapping, the in-group index must be the same for
	// every non-home group; under skewed mapping it must differ for a
	// decent fraction of lines.
	diff := 0
	total := 0
	for i := 1; i < 2000; i++ {
		l := mem.Line(i * 131071)
		home := cm.Home(l)
		hg := e.topo.GroupOf(home)
		var idxSkew, idxID []int
		for g := 0; g < e.topo.Groups(); g++ {
			if g == hg {
				continue
			}
			idxSkew = append(idxSkew, int(cm.Camp(l, g))%e.topo.UnitsPerGroup())
			idxID = append(idxID, int(cmID.Camp(l, g))%e.topo.UnitsPerGroup())
		}
		for k := 1; k < len(idxID); k++ {
			if idxID[k] != idxID[0] {
				t.Fatalf("identical mapping produced different in-group indices for line %d", l)
			}
		}
		total++
		for k := 1; k < len(idxSkew); k++ {
			if idxSkew[k] != idxSkew[0] {
				diff++
				break
			}
		}
	}
	if diff < total/2 {
		t.Fatalf("skewed mapping differs for only %d/%d lines", diff, total)
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	e, cm := newEnv(true)
	for i := 0; i < 500; i++ {
		l := mem.Line(i * 7919)
		from := topology.UnitID(i % e.topo.Units())
		got, gotHome := cm.Nearest(e.noc, l, from)
		// Brute force over the candidate list.
		best := topology.UnitID(-1)
		bestLat := int64(1 << 62)
		for _, loc := range cm.Locations(l) {
			if lat := e.noc.Latency(from, loc); lat < bestLat {
				best, bestLat = loc, lat
			}
		}
		if e.noc.Latency(from, got) != bestLat {
			t.Fatalf("line %d from %d: Nearest latency %d, brute force %d (units %d vs %d)",
				l, from, e.noc.Latency(from, got), bestLat, got, best)
		}
		if gotHome != (got == cm.Home(l)) {
			t.Fatalf("line %d: isHome flag inconsistent", l)
		}
	}
}

func TestNearestNeverWorseThanHome(t *testing.T) {
	e, cm := newEnv(true)
	totalLines := e.space.TotalBytes() / mem.LineSize
	f := func(lraw uint64, uraw uint8) bool {
		l := mem.Line(lraw % totalLines)
		from := topology.UnitID(int(uraw) % e.topo.Units())
		loc, _ := cm.Nearest(e.noc, l, from)
		return e.noc.Latency(from, loc) <= e.noc.Latency(from, cm.Home(l))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
