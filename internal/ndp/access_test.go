package ndp

import (
	"testing"

	"abndp/internal/check"
	"abndp/internal/config"
	"abndp/internal/mem"
	"abndp/internal/topology"
)

// accessSystem builds a small cache-enabled system for direct access-path
// tests without running an app.
func accessSystem(t *testing.T, cacheOn bool) *System {
	t.Helper()
	cfg := smallCfg()
	d := config.DesignSm
	if cacheOn {
		d = config.DesignC
	}
	return NewSystem(cfg, d)
}

// lineHomedOn returns a line whose home is unit u.
func lineHomedOn(s *System, u topology.UnitID) mem.Line {
	return mem.LineOf(mem.Addr(uint64(u)*s.Cfg.UnitBytes + 8192))
}

func TestFetchLineLocalIsFast(t *testing.T) {
	s := accessSystem(t, false)
	l := lineHomedOn(s, 3)
	finish := s.fetchLine(3, l, 0)
	// Local DRAM: no interconnect legs; just the channel access (cold, so
	// between the row-hit and row-conflict bounds).
	if finish < s.units[3].dram.BestAccessCycles() || finish > s.units[3].dram.WorstAccessCycles() {
		t.Fatalf("local fetch finished at %d, want within [%d, %d]",
			finish, s.units[3].dram.BestAccessCycles(), s.units[3].dram.WorstAccessCycles())
	}
	if s.Stats.Units[3].InterHops != 0 {
		t.Fatal("local fetch charged inter-stack hops")
	}
	if s.Stats.Units[3].DRAMReads != 1 {
		t.Fatalf("local fetch did %d DRAM reads, want 1", s.Stats.Units[3].DRAMReads)
	}
}

func TestFetchLineRemoteChargesHopsAndEnergy(t *testing.T) {
	s := accessSystem(t, false)
	from := topology.UnitID(0)
	home := topology.UnitID(s.Units() - 1) // different stack
	l := lineHomedOn(s, home)
	finish := s.fetchLine(from, l, 0)
	if finish <= s.units[from].dram.WorstAccessCycles() {
		t.Fatal("remote fetch should be slower than any local access")
	}
	st := &s.Stats.Units[from]
	if st.InterHops == 0 {
		t.Fatal("remote fetch charged no hops")
	}
	if st.Energy.Interconnect <= 0 {
		t.Fatal("remote fetch charged no interconnect energy")
	}
	if s.Stats.Units[home].DRAMReads != 1 {
		t.Fatal("remote fetch did not read the home DRAM")
	}
}

func TestFetchLineL1HitSkipsTransfer(t *testing.T) {
	s := accessSystem(t, false)
	from := topology.UnitID(0)
	l := lineHomedOn(s, 20)
	s.fetchLine(from, l, 0) // install
	hopsBefore := s.Stats.Units[from].InterHops
	readsBefore := s.Stats.Units[20].DRAMReads
	finish := s.fetchLine(from, l, 1000)
	if finish != 1000+s.sramHitCycles {
		t.Fatalf("L1 hit finished at %d, want %d", finish, 1000+s.sramHitCycles)
	}
	if s.Stats.Units[from].InterHops != hopsBefore {
		t.Fatal("L1 hit generated traffic")
	}
	if s.Stats.Units[20].DRAMReads != readsBefore {
		t.Fatal("L1 hit re-read DRAM")
	}
	if s.Stats.Units[from].L1Hits != 1 {
		t.Fatalf("L1Hits = %d, want 1", s.Stats.Units[from].L1Hits)
	}
}

func TestFetchLinePrefetchBufferReuse(t *testing.T) {
	s := accessSystem(t, false)
	from := topology.UnitID(0)
	// Fill L1's set so the line falls out of L1 but stays in the pf
	// buffer: easier — look up a second line that maps to the pf buffer
	// only. Directly exercise the pfbuf path by invalidating L1.
	l := lineHomedOn(s, 20)
	s.fetchLine(from, l, 0)
	if s.Stats.Units[from].L1Misses != 1 {
		t.Fatalf("L1Misses = %d after the first fetch, want 1", s.Stats.Units[from].L1Misses)
	}
	s.units[from].l1.Invalidate()
	finish := s.fetchLine(from, l, 10)
	if s.Stats.Units[from].PFHits != 1 {
		t.Fatalf("PFHits = %d, want 1", s.Stats.Units[from].PFHits)
	}
	// A buffer hit is an L1 miss the buffer served: L1Misses counts only
	// the misses that transfer a line.
	if s.Stats.Units[from].L1Misses != 1 {
		t.Fatalf("L1Misses = %d after a buffer hit, want 1", s.Stats.Units[from].L1Misses)
	}
	// Reuse waits for the original transfer, never re-transfers.
	if s.Stats.Units[20].DRAMReads != 1 {
		t.Fatal("prefetch-buffer reuse re-read DRAM")
	}
	if finish < 10 {
		t.Fatal("reuse finished before it started")
	}
}

func TestCampHitServesFromCamp(t *testing.T) {
	s := accessSystem(t, true)
	from := topology.UnitID(0)
	// A line homed far away, whose nearest location for unit 0 is a camp.
	var l mem.Line
	var camp topology.UnitID
	found := false
	for i := 0; i < 1000 && !found; i++ {
		cand := lineHomedOn(s, topology.UnitID(s.Units()-1)) + mem.Line(i*997)
		if s.Space.HomeOfLine(cand) != topology.UnitID(s.Units()-1) {
			continue
		}
		loc, isHome := s.Camps.Nearest(s.Noc, cand, from)
		if !isHome && loc != from {
			l, camp, found = cand, loc, true
		}
	}
	if !found {
		t.Skip("no suitable camp-routed line found at this scale")
	}
	// Force the line into the camp's cache, then fetch.
	for !s.units[camp].cache.Contains(l) {
		s.units[camp].cache.Insert(l)
	}
	home := s.Space.HomeOfLine(l)
	s.fetchLine(from, l, 0)
	if s.Stats.Units[home].DRAMReads != 0 {
		t.Fatal("camp hit still read the home DRAM")
	}
	if s.Stats.Units[camp].DRAMReads != 1 {
		t.Fatalf("camp DRAM reads = %d, want 1", s.Stats.Units[camp].DRAMReads)
	}
}

func TestCampMissForwardsToHomeAndInserts(t *testing.T) {
	s := accessSystem(t, true)
	// Disable bypass so insertion is deterministic.
	for _, u := range s.units {
		_ = u
	}
	cfg := smallCfg()
	cfg.BypassProb = 0
	s = NewSystem(cfg, config.DesignC)
	from := topology.UnitID(0)
	var l mem.Line
	var camp topology.UnitID
	found := false
	for i := 0; i < 2000 && !found; i++ {
		cand := lineHomedOn(s, topology.UnitID(s.Units()-1)) + mem.Line(i*997)
		if s.Space.HomeOfLine(cand) != topology.UnitID(s.Units()-1) {
			continue
		}
		loc, isHome := s.Camps.Nearest(s.Noc, cand, from)
		if !isHome && loc != from {
			l, camp, found = cand, loc, true
		}
	}
	if !found {
		t.Skip("no suitable camp-routed line found at this scale")
	}
	home := s.Space.HomeOfLine(l)
	s.fetchLine(from, l, 0)
	if s.Stats.Units[home].DRAMReads != 1 {
		t.Fatal("camp miss did not read the home DRAM")
	}
	if !s.units[camp].cache.Contains(l) {
		t.Fatal("camp miss did not install the line at the camp")
	}
	if s.Stats.Units[camp].DRAMWrites != 1 {
		t.Fatalf("camp insert DRAM writes = %d, want 1", s.Stats.Units[camp].DRAMWrites)
	}
}

func TestWriteLineGoesToHome(t *testing.T) {
	s := accessSystem(t, true)
	from := topology.UnitID(0)
	home := topology.UnitID(s.Units() - 1)
	l := lineHomedOn(s, home)
	s.writeLine(from, l, 0)
	if s.Stats.Units[home].DRAMWrites != 1 {
		t.Fatal("write did not reach the home DRAM")
	}
	if s.Stats.Units[from].InterHops == 0 {
		t.Fatal("remote write charged no hops")
	}
	// Writes bypass the cache: nothing got inserted anywhere.
	for i, u := range s.units {
		if u.cache != nil && u.cache.Contains(l) {
			t.Fatalf("write populated the cache at unit %d", i)
		}
	}
}

func TestPortInjectSerializesSameDirection(t *testing.T) {
	s := accessSystem(t, false)
	// Two units in the same stack sending to the same remote stack share
	// a directional link.
	from := topology.UnitID(0)
	to := topology.UnitID(s.Units() - 1)
	if s.Topo.SameStack(from, to) {
		t.Fatal("test needs cross-stack units")
	}
	t0 := s.portInject(from, to, 100)
	t1 := s.portInject(from, to, 100)
	if t1 <= t0 {
		t.Fatalf("second same-cycle injection (%d) should queue after first (%d)", t1, t0)
	}
	// Same-stack messages are never port-limited.
	if got := s.portInject(0, 1, 100); got != 100 {
		t.Fatalf("intra-stack injection delayed to %d", got)
	}
}

func TestChargeMsgSelfIsFree(t *testing.T) {
	s := accessSystem(t, false)
	s.chargeMsg(5, 5, 5, 80)
	st := &s.Stats.Units[5]
	if st.InterHops != 0 || st.Energy.Interconnect != 0 {
		t.Fatal("self message charged traffic")
	}
}

// fetchLine fills a line that missed into the L1 and the prefetch buffer
// without rescanning either. Under the audit it checks that the line is
// still absent from both; the check must flag a line already present.
func TestAuditFillDetectsResidentLine(t *testing.T) {
	s := accessSystem(t, true)
	c := check.New()
	s.SetChecker(c)
	l := lineHomedOn(s, 9)
	s.fetchLine(2, l, 0)
	s.fetchLine(2, l, 100) // an L1 hit
	if !c.Ok() {
		t.Fatalf("clean fetches flagged: %v", c.Violations())
	}
	s.units[2].l1.Invalidate()
	s.auditFill(2, l) // still in the prefetch buffer
	s.units[2].pfbuf.Invalidate()
	s.units[2].l1.Fill(l)
	s.auditFill(2, l) // back in the L1
	var rules []string
	for _, v := range c.Violations() {
		rules = append(rules, v.Rule)
	}
	if len(rules) != 2 || rules[0] != "ndp.pffill" || rules[1] != "ndp.l1fill" {
		t.Fatalf("audit recorded %v, want [ndp.pffill ndp.l1fill]", rules)
	}
}
