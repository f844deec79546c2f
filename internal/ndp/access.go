package ndp

import (
	"sort"

	"abndp/internal/mem"
	"abndp/internal/noc"
	"abndp/internal/topology"
)

// chargeMsg accounts hops and interconnect energy for one message from
// 'from' to 'to'. Hops and energy are attributed to the requesting unit r
// (the unit on whose behalf the flow happens), matching the paper's
// "hops needed for all data accesses" metric.
func (s *System) chargeMsg(r, from, to topology.UnitID, bytes int) {
	if from == to {
		return
	}
	if s.obsM != nil {
		s.obsM.Message()
	}
	st := &s.Stats.Units[r]
	st.InterHops += int64(s.Noc.Hops(from, to))
	if s.Topo.SameStack(from, to) {
		st.IntraMsgs++
	}
	st.Energy.Interconnect += s.Noc.Energy(from, to, bytes)
}

// dramAccess performs one line access on unit at's channel, charging
// latency (with queueing and row-buffer state), occupancy, and energy.
// Returns the latency.
//
// The channel's contention clock is the engine time at which the access is
// issued (requests are resolved analytically at issue time, so issue order
// is the only per-channel-monotone order available); the queueing delay is
// folded into the caller's transfer chain.
func (s *System) dramAccess(at topology.UnitID, l mem.Line, write bool) int64 {
	st := &s.Stats.Units[at]
	var lat, queued int64
	var pj float64
	if s.flt == nil {
		lat, queued, pj = s.units[at].dram.Access(s.Engine.Now(), l)
	} else {
		lat, queued, pj = s.faultyDRAMAccess(at, l)
	}
	st.DRAMQueueCycles += queued
	if s.obsM != nil {
		s.obsM.DRAMAccess(queued, write)
	}
	if write {
		st.DRAMWrites++
	} else {
		st.DRAMReads++
	}
	st.Energy.DRAM += pj
	return lat
}

// sramTouch charges one SRAM array access at unit at.
func (s *System) sramTouch(at topology.UnitID) {
	s.Stats.Units[at].Energy.CoreSRAM += s.Cfg.SRAMPJPerAccess
}

// portInject serializes a data message leaving `from`'s stack toward
// `to`'s stack through the finite-bandwidth directional mesh link (X-Y
// routing: the X direction first when dx != 0), returning the chain time
// advanced by the link's queueing delay. Same-stack traffic uses the
// crossbar and is not link-limited. Like dramAccess, the link's contention
// clock is engine time.
func (s *System) portInject(from, to topology.UnitID, t int64) int64 {
	if from == to || s.Topo.SameStack(from, to) {
		return t
	}
	sf, st := s.Topo.StackOf(from), s.Topo.StackOf(to)
	fx, fy := s.Topo.Coord(sf)
	tx, ty := s.Topo.Coord(st)
	dir := noc.XYDir(fx, fy, tx, ty)
	if s.flt != nil && s.flt.LinkDead(int(sf), dir) {
		var extra int
		dir, extra = s.detourDir(int(sf), fx, fy, tx, ty, dir)
		s.Stats.Faults.ReroutedMsgs++
		s.Stats.Faults.ReroutedExtraHops += int64(extra)
		if s.obsM != nil {
			s.obsM.FaultRerouted(extra)
		}
		t += int64(extra) * s.Noc.InterHopCycles()
	}
	port := int(sf)*4 + dir
	if s.obsM != nil {
		s.obsM.LinkInject(port)
	}
	now := s.Engine.Now()
	if now > s.portLastT[port] {
		s.portBacklog[port] -= now - s.portLastT[port]
		if s.portBacklog[port] < 0 {
			s.portBacklog[port] = 0
		}
		s.portLastT[port] = now
	}
	t += s.portBacklog[port]
	s.portBacklog[port] += s.portOcc
	return t
}

// fetchLine resolves a read of line l issued by unit u at cycle now,
// returning the cycle at which the data is available in u's prefetch
// buffer. It walks the full §4.4 access flow: L1 → prefetch buffer →
// nearest camp probe → home DRAM, charging every hop, tag check, and DRAM
// access along the actual path. Each structure is probed once: a miss in
// both leaves the line absent from them, since transfer touches neither
// of u's, so it fills them without another scan.
func (s *System) fetchLine(u topology.UnitID, l mem.Line, now int64) int64 {
	un := s.units[u]
	st := &s.Stats.Units[u]

	if un.l1.Probe(l) {
		st.L1Hits++
		s.sramTouch(u)
		return now + s.sramHitCycles
	}

	if ready, ok := un.pfbuf.Lookup(l); ok {
		st.PFHits++
		s.sramTouch(u)
		if ready < now {
			ready = now
		}
		return ready + s.sramHitCycles
	}

	st.L1Misses++
	finish := s.transfer(u, l, now)
	if s.audit != nil {
		s.auditFill(u, l)
	}
	un.pfbuf.Insert(l, finish)
	un.l1.Fill(l)
	return finish
}

// auditFill checks the preconditions of fetchLine's fills: line l, which
// missed in unit u's L1 and prefetch buffer before its transfer, is still
// in neither.
func (s *System) auditFill(u topology.UnitID, l mem.Line) {
	un := s.units[u]
	s.audit.Tick()
	if un.l1.Contains(l) {
		s.audit.Violationf("ndp.l1fill", s.Engine.Now(),
			"unit %d fills line %d into its L1, which already holds it", u, l)
	}
	if _, ok := un.pfbuf.Lookup(l); ok {
		s.audit.Violationf("ndp.pffill", s.Engine.Now(),
			"unit %d inserts line %d into its prefetch buffer, which already holds it", u, l)
	}
}

// transfer moves line l to unit u, returning the arrival cycle.
func (s *System) transfer(u topology.UnitID, l mem.Line, now int64) int64 {
	home := s.Space.HomeOfLine(l)

	if !s.Cfg.CacheEnabled {
		return s.fromHome(u, home, l, now)
	}

	nearest, isHome := s.Camps.Nearest(s.Noc, l, u)
	if isHome {
		// §4.3: when the home is the nearest location we go straight
		// there; distant camps are never probed.
		return s.fromHome(u, home, l, now)
	}
	if s.flt != nil && s.flt.UnitDead(int(nearest)) {
		// The nearest camp died: its slice holds nothing and will never
		// again accept inserts, so the request goes straight home instead
		// of paying a guaranteed-miss probe detour.
		return s.fromHome(u, home, l, now)
	}

	c := nearest
	cu := s.units[c]
	s.chargeMsg(u, u, c, noc.CtrlBytes)
	t := now + s.Noc.Latency(u, c)

	// Tag check at the camp: SRAM for Traveller and pure-SRAM caches, an
	// extra in-DRAM access for the tags-in-DRAM baseline (Figure 13).
	if s.dramTagExtra {
		t += s.dramAccess(c, l, false)
	} else {
		s.sramTouch(c)
		t += s.sramHitCycles
	}

	hit := cu.cache.Probe(l)
	if s.obsM != nil {
		s.obsM.TravellerProbe(hit)
	}
	if hit {
		if s.sramData {
			s.sramTouch(c)
			t += s.sramHitCycles
		} else {
			t += s.dramAccess(c, l, false)
		}
		s.chargeMsg(u, c, u, noc.DataBytes)
		t = s.portInject(c, u, t)
		return t + s.Noc.Latency(c, u)
	}

	if s.Cfg.ProbeAllCamps {
		// The §4.3 ablation: chase the remaining camps in distance order
		// before giving up and going home. Each extra probe is another
		// request leg plus a tag check, which is why the paper's design
		// probes only the nearest camp.
		if hit, ht := s.probeRemainingCamps(u, c, l, t); hit {
			return ht
		} else {
			t = ht
			c = s.lastProbed
			cu = s.units[c]
		}
	}

	// Camp miss: forward to home, return data to the requester, and try
	// to install a copy at the probed camp (subject to bypass).
	s.chargeMsg(u, c, home, noc.CtrlBytes)
	t += s.Noc.Latency(c, home)
	t += s.dramAccess(home, l, false)
	s.chargeMsg(u, home, u, noc.DataBytes)
	t = s.portInject(home, u, t)
	arrive := t + s.Noc.Latency(home, u)

	inserted := cu.cache.Insert(l)
	if s.obsM != nil {
		s.obsM.TravellerInsert(inserted)
	}
	if inserted {
		// The camp copy rides along with the response (multicast at the
		// home's port), so it costs energy and a cache write but no
		// extra port serialization.
		s.chargeMsg(u, home, c, noc.DataBytes)
		if s.sramData {
			s.sramTouch(c)
		} else {
			s.dramAccess(c, l, true)
		}
	}
	return arrive
}

// probeRemainingCamps walks the other camps of line l (excluding the
// already-probed `first`) in ascending distance from requester u, charging
// each chain leg and tag check. On a hit it serves the data from that camp
// and returns (true, arrival time at u); on a total miss it returns
// (false, time at the last probed camp), with s.lastProbed set to it.
func (s *System) probeRemainingCamps(u, first topology.UnitID, l mem.Line, t int64) (bool, int64) {
	var locs [8]topology.UnitID
	cands := s.Camps.AppendLocations(locs[:0], l)
	home := cands[0]
	// Sort remaining camps (cands[1:]) by distance from u, skipping first.
	camps := cands[1:]
	sort.Slice(camps, func(i, j int) bool {
		return s.Noc.Latency(u, camps[i]) < s.Noc.Latency(u, camps[j])
	})
	at := first
	for _, c := range camps {
		if c == first || c == home {
			continue
		}
		if s.flt != nil && s.flt.UnitDead(int(c)) {
			continue // dead camp: nothing to probe
		}
		s.chargeMsg(u, at, c, noc.CtrlBytes)
		t += s.Noc.Latency(at, c)
		at = c
		if s.dramTagExtra {
			t += s.dramAccess(c, l, false)
		} else {
			s.sramTouch(c)
			t += s.sramHitCycles
		}
		hit := s.units[c].cache.Probe(l)
		if s.obsM != nil {
			s.obsM.TravellerProbe(hit)
		}
		if hit {
			if s.sramData {
				s.sramTouch(c)
				t += s.sramHitCycles
			} else {
				t += s.dramAccess(c, l, false)
			}
			s.chargeMsg(u, c, u, noc.DataBytes)
			t = s.portInject(c, u, t)
			return true, t + s.Noc.Latency(c, u)
		}
	}
	s.lastProbed = at
	return false, t
}

// fromHome fetches line l from its home unit's DRAM (local or remote).
func (s *System) fromHome(u, home topology.UnitID, l mem.Line, now int64) int64 {
	if home == u {
		return now + s.dramAccess(u, l, false)
	}
	s.chargeMsg(u, u, home, noc.CtrlBytes)
	t := now + s.Noc.Latency(u, home)
	t += s.dramAccess(home, l, false)
	s.chargeMsg(u, home, u, noc.DataBytes)
	t = s.portInject(home, u, t)
	return t + s.Noc.Latency(home, u)
}

// writeLine posts the write of a task's main element back to its home
// memory (writes bypass the DRAM cache, §4.4). Posted writes are off the
// critical path; only energy, hops, and channel occupancy are charged.
func (s *System) writeLine(u topology.UnitID, l mem.Line, now int64) {
	home := s.Space.HomeOfLine(l)
	if home != u {
		s.chargeMsg(u, u, home, noc.DataBytes)
		now = s.portInject(u, home, now)
		now += s.Noc.Latency(u, home)
	}
	s.dramAccess(home, l, true)
}
