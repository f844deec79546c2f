// Package config centralizes every tunable of the simulated NDP system.
// Default values reproduce Table 1 of the paper.
package config

import (
	"fmt"
	"math"

	"abndp/internal/fault"
	"abndp/internal/mem"
)

// CacheKind selects the data/tag placement of the per-unit remote-data
// cache, used by the Figure 13 ablation.
type CacheKind int

const (
	// CacheTraveller is the paper's design: data in DRAM, tags in SRAM.
	CacheTraveller CacheKind = iota
	// CacheSRAM is a pure on-chip SRAM data cache (unrealistic area).
	CacheSRAM
	// CacheDRAMTags stores both data and tags in DRAM, paying an extra
	// in-DRAM tag access on every probe.
	CacheDRAMTags
)

// Replacement selects the Traveller Cache victim policy. The paper (§4.4)
// finds "little performance difference between an LRU and a random policy"
// and ships random to avoid metadata; both are implemented so the claim is
// checkable (ablation `ablrepl`).
type Replacement int

const (
	// ReplaceRandom is the paper's default (no replacement metadata).
	ReplaceRandom Replacement = iota
	// ReplaceLRU keeps per-set recency order.
	ReplaceLRU
)

func (r Replacement) String() string {
	if r == ReplaceLRU {
		return "lru"
	}
	return "random"
}

func (k CacheKind) String() string {
	switch k {
	case CacheTraveller:
		return "traveller"
	case CacheSRAM:
		return "sram"
	case CacheDRAMTags:
		return "dramtags"
	}
	return fmt.Sprintf("CacheKind(%d)", int(k))
}

// Config holds every system parameter. Construct with Default and adjust
// fields for sweeps; Validate before use.
type Config struct {
	// --- Topology (Table 1: "4x4 stacks in mesh, 8 NDP units per stack") ---
	MeshX, MeshY  int
	UnitsPerStack int
	// Torus adds wraparound links to the inter-stack network (ablation
	// `abltopo`; the paper's design is topology-agnostic, §2.1).
	Torus bool

	// --- NDP cores ("2 GHz, 2 cores per NDP unit") ---
	CoresPerUnit int
	CoreGHz      float64

	// --- Memory capacity ("64 GB in total, 512 MB per unit") ---
	UnitBytes uint64

	// --- L1 caches ---
	L1DBytes, L1DWays int
	L1IBytes, L1IWays int

	// --- Prefetching ("Prefetch buffer 4 kB, 64 B blocks, FIFO") ---
	PrefetchBufBytes int
	PrefetchWindow   int // tasks in the task-queue prefetch window

	// --- DRAM channel ("128 bits; tCAS=tRCD=tRP=17 ns; 5.0 pJ/bit; 535.8 pJ ACT/PRE") ---
	TCASns, TRCDns, TRPns float64
	DRAMPJPerBit          float64
	DRAMActPrePJ          float64
	DRAMBusGBs            float64 // channel bandwidth for occupancy modeling

	// --- Interconnect ("intra 1.5 ns/hop 0.4 pJ/bit; inter 10 ns/hop 4 pJ/bit 32 GB/s") ---
	IntraHopNS    float64
	IntraPJPerBit float64
	InterHopNS    float64
	InterPJPerBit float64
	InterBWGBs    float64 // per-direction mesh port bandwidth of each stack

	// --- Traveller Cache ("1/64 capacity, 4-way, C=3, random repl., 40% bypass") ---
	CacheEnabled  bool
	CacheRatio    int // cache size = UnitBytes / CacheRatio
	CacheWays     int
	CampCount     int  // C
	SkewedMapping bool // skewed vs identical camp unit-ID mapping
	BypassProb    float64
	CacheKind     CacheKind
	Replacement   Replacement
	// ProbeAllCamps probes every camp in distance order on a miss before
	// falling through to the home, instead of the paper's nearest-only
	// rule (§4.3). Implemented for the `ablprobe` ablation.
	ProbeAllCamps bool

	// --- Scheduler ("100,000-cycle exchange interval; B = 3*Dinter") ---
	ExchangeInterval int64
	// HybridAlpha is the coefficient in B = alpha * Dinter. A negative
	// value means "use the default 1/2 * mesh diameter".
	HybridAlpha float64
	StealBatch  int // max tasks moved per work-stealing attempt
	// InformedStealing selects victims from the periodically exchanged
	// load snapshot (longest known queue) instead of uniformly at random
	// (ablation `ablsteal`). Random is the classic Blumofe-Leiserson
	// default.
	InformedStealing bool
	// SchedulingWindow makes task placement asynchronous, as in the
	// paper's Figure 4: generated tasks first enter their origin unit's
	// scheduling window, and a hardware scheduler running alongside the
	// cores forwards up to SchedulingWindow of them every
	// SchedulingPeriod cycles. Zero (the default) places tasks
	// immediately at generation time — equivalent to an infinitely fast
	// scheduler. Ablation `ablwindow`.
	SchedulingWindow int
	SchedulingPeriod int64
	// SchedPolicy selects the placement policy by registry name ("home",
	// "lowestdist", "hybrid", "loadonly", or any future registrant — see
	// internal/sched and RegisterPolicy). Empty (the default) derives the
	// policy from the design, reproducing Table 2 exactly; setting it
	// overrides the design's placement policy while leaving the design's
	// cache and camp-awareness choices untouched.
	SchedPolicy string
	// PolicyParams holds named parameters of the selected SchedPolicy
	// (registry-declared; Validate rejects unknown names and out-of-range
	// values). Parameters not present take their registered defaults.
	PolicyParams map[string]float64

	// --- Core / SRAM power ("163 uW idle, 371 pJ per instruction") ---
	CoreIdleWatt    float64
	CorePJPerInstr  float64
	SRAMPJPerAccess float64 // L1 / prefetch buffer / tag array access
	SRAMHitCycles   int64   // L1 / prefetch buffer hit latency

	// Seed drives every pseudo-random choice in the simulator.
	Seed int64

	// Faults declares the fault-injection plan for this run. The zero value
	// injects nothing and is guaranteed zero-cost (byte-identical results to
	// a fault-free build). See internal/fault and docs/FAULTS.md.
	Faults fault.Plan
}

// MaxCacheWays bounds Config.CacheWays and Config.L1DWays. The Traveller
// Cache stores per-way LRU recency ranks as int8, so an associativity past
// 127 would silently corrupt replacement order; Validate rejects it
// instead. Both caches also keep per-set fill counts as uint8. (Realistic
// configurations use 2-16 ways.)
const MaxCacheWays = 127

// Default returns the Table 1 configuration.
func Default() Config {
	return Config{
		MeshX: 4, MeshY: 4, UnitsPerStack: 8,
		CoresPerUnit: 2, CoreGHz: 2.0,
		UnitBytes: 512 << 20,

		L1DBytes: 64 << 10, L1DWays: 4,
		L1IBytes: 32 << 10, L1IWays: 2,

		PrefetchBufBytes: 4 << 10,
		PrefetchWindow:   8,

		TCASns: 17, TRCDns: 17, TRPns: 17,
		DRAMPJPerBit: 5.0,
		DRAMActPrePJ: 535.8,
		DRAMBusGBs:   16, // 128-bit channel at 1 GT/s

		IntraHopNS: 1.5, IntraPJPerBit: 0.4,
		InterHopNS: 10, InterPJPerBit: 4,
		InterBWGBs: 32,

		CacheEnabled:  false,
		CacheRatio:    64,
		CacheWays:     4,
		CampCount:     3,
		SkewedMapping: true,
		BypassProb:    0.4,
		CacheKind:     CacheTraveller,

		// The paper uses 100k cycles against multi-10M-cycle executions
		// (~100+ exchanges per run). Simulated workloads here are ~100x
		// smaller, so the default preserves the exchanges-per-run ratio
		// rather than the absolute interval; exchange traffic stays
		// negligible either way. Figure 18 sweeps this parameter.
		ExchangeInterval: 5_000,
		HybridAlpha:      -1, // default: half the mesh diameter
		StealBatch:       8,
		SchedulingPeriod: 64,

		CoreIdleWatt:    163e-6,
		CorePJPerInstr:  371,
		SRAMPJPerAccess: 10,
		SRAMHitCycles:   2,

		Seed: 1,
	}
}

// Units returns the total NDP unit count.
func (c *Config) Units() int { return c.MeshX * c.MeshY * c.UnitsPerStack }

// Groups returns the group count (camp locations + the home group).
func (c *Config) Groups() int { return c.CampCount + 1 }

// Cycles converts a duration in nanoseconds to core clock cycles, rounding
// up so that sub-cycle latencies still cost a cycle.
func (c *Config) Cycles(ns float64) int64 {
	cyc := int64(ns*c.CoreGHz + 0.999999)
	if cyc < 0 {
		return 0
	}
	return cyc
}

// Seconds converts core clock cycles to seconds.
func (c *Config) Seconds(cycles int64) float64 {
	return float64(cycles) / (c.CoreGHz * 1e9)
}

// CacheBytes returns the per-unit DRAM cache capacity.
func (c *Config) CacheBytes() uint64 {
	if c.CacheRatio <= 0 {
		return 0
	}
	return c.UnitBytes / uint64(c.CacheRatio)
}

// Validate reports the first invalid parameter combination found. Every
// float field must be finite: a NaN or Inf latency, energy, bandwidth, or
// multiplier would quietly poison cycle counts and cache keys downstream,
// so they are rejected here with a descriptive error instead.
func (c *Config) Validate() error {
	switch {
	case c.MeshX <= 0 || c.MeshY <= 0 || c.UnitsPerStack <= 0:
		return fmt.Errorf("config: bad topology %dx%dx%d", c.MeshX, c.MeshY, c.UnitsPerStack)
	case c.CoresPerUnit <= 0:
		return fmt.Errorf("config: CoresPerUnit = %d", c.CoresPerUnit)
	case c.UnitBytes == 0:
		return fmt.Errorf("config: UnitBytes = 0")
	case c.CacheEnabled && c.CacheRatio <= 1:
		return fmt.Errorf("config: CacheRatio = %d must be > 1", c.CacheRatio)
	case c.CacheEnabled && c.CacheWays <= 0:
		// Zero would divide-by-zero in traveller.New's set sizing.
		return fmt.Errorf("config: CacheWays = %d must be > 0", c.CacheWays)
	case c.CacheEnabled && c.CacheWays > MaxCacheWays:
		return fmt.Errorf("config: CacheWays = %d exceeds MaxCacheWays = %d (int8 LRU ranks)",
			c.CacheWays, MaxCacheWays)
	case c.L1DWays < 1 || c.L1DWays > MaxCacheWays:
		// The L1 keeps a per-set fill count of at most MaxCacheWays, and
		// an unbounded associativity would size its pages from any integer.
		return fmt.Errorf("config: L1DWays = %d out of [1,%d]", c.L1DWays, MaxCacheWays)
	case c.L1DBytes < mem.LineSize:
		return fmt.Errorf("config: L1DBytes = %d is less than one %d-byte line", c.L1DBytes, mem.LineSize)
	case c.CampCount < 1:
		return fmt.Errorf("config: CampCount = %d must be >= 1", c.CampCount)
	case c.BypassProb < 0 || c.BypassProb >= 1 || math.IsNaN(c.BypassProb):
		return fmt.Errorf("config: BypassProb = %v out of [0,1)", c.BypassProb)
	case c.ExchangeInterval <= 0:
		return fmt.Errorf("config: ExchangeInterval = %d", c.ExchangeInterval)
	case c.PrefetchWindow < 0:
		return fmt.Errorf("config: PrefetchWindow = %d", c.PrefetchWindow)
	case c.SchedulingWindow > 0 && c.SchedulingPeriod <= 0:
		return fmt.Errorf("config: SchedulingPeriod = %d with a scheduling window", c.SchedulingPeriod)
	case c.SRAMHitCycles < 0:
		return fmt.Errorf("config: SRAMHitCycles = %d", c.SRAMHitCycles)
	}
	// Strictly positive rates: zero would divide-by-zero or stall the clock.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"CoreGHz", c.CoreGHz},
		{"DRAMBusGBs", c.DRAMBusGBs},
		{"InterBWGBs", c.InterBWGBs},
	} {
		if !(f.v > 0) || math.IsInf(f.v, 0) { // !(v>0) also catches NaN
			return fmt.Errorf("config: %s = %v must be finite and > 0", f.name, f.v)
		}
	}
	// Non-negative latencies and energies: NaN, Inf, and negative values are
	// all rejected.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"TCASns", c.TCASns},
		{"TRCDns", c.TRCDns},
		{"TRPns", c.TRPns},
		{"DRAMPJPerBit", c.DRAMPJPerBit},
		{"DRAMActPrePJ", c.DRAMActPrePJ},
		{"IntraHopNS", c.IntraHopNS},
		{"IntraPJPerBit", c.IntraPJPerBit},
		{"InterHopNS", c.InterHopNS},
		{"InterPJPerBit", c.InterPJPerBit},
		{"CoreIdleWatt", c.CoreIdleWatt},
		{"CorePJPerInstr", c.CorePJPerInstr},
		{"SRAMPJPerAccess", c.SRAMPJPerAccess},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 0) {
			return fmt.Errorf("config: %s = %v must be finite and >= 0", f.name, f.v)
		}
	}
	// HybridAlpha may be negative (sentinel for the default), but not NaN/Inf.
	if math.IsNaN(c.HybridAlpha) || math.IsInf(c.HybridAlpha, 0) {
		return fmt.Errorf("config: HybridAlpha = %v must be finite", c.HybridAlpha)
	}
	if err := c.validatePolicy(); err != nil {
		return err
	}
	return c.Faults.Validate(c.Units(), c.MeshX*c.MeshY)
}
