package config

// PrefixKey returns the canonical fingerprint of the configuration's
// *prefix* — every field except the late-binding knobs that a sweep varies
// without changing the static structure of the machine or the address
// space: scheduler weights (HybridAlpha), stealing knobs (StealBatch,
// InformedStealing), the asynchronous scheduling window
// (SchedulingWindow/SchedulingPeriod), the load-exchange interval, the
// placement policy, and the fault plan. Two configurations with equal
// prefix keys build identical topologies, memory spaces, interconnect
// tables, and camp mappings, so knob-independent artifacts (workload
// inputs, static placement-cost vectors) computed under one are bit-valid
// under the other. See docs/PERF.md for the rules and internal/ckpt for
// the store keyed by it.
//
// The key is deliberately conservative: it retains fields (Seed, cache
// geometry, energy constants) that some artifacts do not depend on. An
// over-precise prefix key can only reduce sharing, never correctness.
//
// Like CanonicalKey, coverage is explicit and test-enforced: every Config
// field must either appear in writePrefix or be listed in
// prefixExemptFields (TestPrefixKeyCoversEveryField fails otherwise).
func (c *Config) PrefixKey() string {
	var w keyWriter
	w.Grow(160)
	c.writePrefix(&w)
	return w.String()
}

// writePrefix writes the prefix fields, each a number or t/f with no '|'
// of its own, so the prefix key is the first fields of the canonical key.
func (c *Config) writePrefix(w *keyWriter) {
	w.i(c.MeshX)
	w.i(c.MeshY)
	w.i(c.UnitsPerStack)
	w.b(c.Torus)
	w.i(c.CoresPerUnit)
	w.f(c.CoreGHz)
	w.i64(int64(c.UnitBytes))
	w.i(c.L1DBytes)
	w.i(c.L1DWays)
	w.i(c.L1IBytes)
	w.i(c.L1IWays)
	w.i(c.PrefetchBufBytes)
	w.i(c.PrefetchWindow)
	w.f(c.TCASns)
	w.f(c.TRCDns)
	w.f(c.TRPns)
	w.f(c.DRAMPJPerBit)
	w.f(c.DRAMActPrePJ)
	w.f(c.DRAMBusGBs)
	w.f(c.IntraHopNS)
	w.f(c.IntraPJPerBit)
	w.f(c.InterHopNS)
	w.f(c.InterPJPerBit)
	w.f(c.InterBWGBs)
	w.b(c.CacheEnabled)
	w.i(c.CacheRatio)
	w.i(c.CacheWays)
	w.i(c.CampCount)
	w.b(c.SkewedMapping)
	w.f(c.BypassProb)
	w.i(int(c.CacheKind))
	w.i(int(c.Replacement))
	w.b(c.ProbeAllCamps)
	w.f(c.CoreIdleWatt)
	w.f(c.CorePJPerInstr)
	w.f(c.SRAMPJPerAccess)
	w.i64(c.SRAMHitCycles)
	w.i64(c.Seed)
}

// prefixExemptFields are the late-binding knobs excluded from PrefixKey.
// Every Config field must appear in writePrefix or here; the coverage
// test enforces the partition. A field may be added here only if no
// prefix-keyed artifact's value can depend on it (see docs/PERF.md).
var prefixExemptFields = map[string]bool{
	"ExchangeInterval": true,
	"HybridAlpha":      true,
	"StealBatch":       true,
	"InformedStealing": true,
	"SchedulingWindow": true,
	"SchedulingPeriod": true,
	// The placement policy only changes scheduling decisions, never the
	// machine.
	"SchedPolicy": true,
	"Faults":      true,
}
