package config

import (
	"math"
	"reflect"
	"testing"

	"abndp/internal/fault"
	"abndp/internal/mem"
)

func TestDefaultMatchesTable1(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
	if c.Units() != 128 {
		t.Fatalf("Units() = %d, want 128", c.Units())
	}
	if got := uint64(c.Units()) * c.UnitBytes; got != 64<<30 {
		t.Fatalf("total capacity = %d, want 64 GB", got)
	}
	if c.Groups() != 4 {
		t.Fatalf("Groups() = %d, want 4 (C=3 + home)", c.Groups())
	}
	if got := c.CacheBytes(); got != 8<<20 {
		t.Fatalf("CacheBytes() = %d, want 8 MB", got)
	}
}

func TestCycles(t *testing.T) {
	c := Default() // 2 GHz: 1 cycle = 0.5 ns
	cases := []struct {
		ns   float64
		want int64
	}{
		{0, 0},
		{0.5, 1},
		{1.5, 3},
		{10, 20},
		{17, 34},
		{0.1, 1}, // sub-cycle rounds up
	}
	for _, cse := range cases {
		if got := c.Cycles(cse.ns); got != cse.want {
			t.Fatalf("Cycles(%v) = %d, want %d", cse.ns, got, cse.want)
		}
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	c := Default()
	if got := c.Seconds(2_000_000_000); got != 1.0 {
		t.Fatalf("Seconds(2e9) = %v, want 1.0", got)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mod := func(f func(*Config)) Config {
		c := Default()
		f(&c)
		return c
	}
	bad := []Config{
		mod(func(c *Config) { c.MeshX = 0 }),
		mod(func(c *Config) { c.CoresPerUnit = 0 }),
		mod(func(c *Config) { c.CoreGHz = 0 }),
		mod(func(c *Config) { c.UnitBytes = 0 }),
		mod(func(c *Config) { c.CacheEnabled = true; c.CacheRatio = 1 }),
		mod(func(c *Config) { c.CacheEnabled = true; c.CacheWays = 0 }),
		mod(func(c *Config) { c.CampCount = 0 }),
		mod(func(c *Config) { c.BypassProb = 1.0 }),
		mod(func(c *Config) { c.BypassProb = -0.1 }),
		mod(func(c *Config) { c.ExchangeInterval = 0 }),
		// L1 geometry: a hypothesis spec can set any integer field, and
		// NewL1 would size its set directory from whatever it gets.
		mod(func(c *Config) { c.L1DWays = 0 }),
		mod(func(c *Config) { c.L1DWays = -4 }),
		mod(func(c *Config) { c.L1DWays = MaxCacheWays + 1 }),
		mod(func(c *Config) { c.L1DWays = 1e9 }),
		mod(func(c *Config) { c.L1DBytes = -1 }),
		mod(func(c *Config) { c.L1DBytes = 0 }),
		mod(func(c *Config) { c.L1DBytes = mem.LineSize - 1 }),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: Validate() accepted invalid config", i)
		}
	}
	// The edges of the L1 ranges stay valid: one line, one way, and the
	// widest associativity.
	for _, c := range []Config{
		mod(func(c *Config) { c.L1DBytes = mem.LineSize; c.L1DWays = 1 }),
		mod(func(c *Config) { c.L1DWays = MaxCacheWays }),
	} {
		if err := c.Validate(); err != nil {
			t.Fatalf("L1 %d B x %d ways rejected: %v", c.L1DBytes, c.L1DWays, err)
		}
	}
}

// TestValidateRejectsNonFiniteFloats walks every float64 field of Config by
// reflection and requires Validate to reject NaN and ±Inf in each, plus
// negative values everywhere except HybridAlpha (whose negative range is the
// documented "use the default" sentinel). A new float field that Validate
// forgets fails here instead of silently poisoning cycle counts.
func TestValidateRejectsNonFiniteFloats(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Float64 {
			continue
		}
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			c := Default()
			reflect.ValueOf(&c).Elem().Field(i).SetFloat(v)
			if err := c.Validate(); err == nil {
				t.Errorf("Validate accepted %s = %v", f.Name, v)
			}
		}
		if f.Name == "HybridAlpha" {
			continue
		}
		c := Default()
		reflect.ValueOf(&c).Elem().Field(i).SetFloat(-1)
		if err := c.Validate(); err == nil {
			t.Errorf("Validate accepted %s = -1", f.Name)
		}
	}
}

func TestValidateRejectsBadFaultPlan(t *testing.T) {
	c := Default()
	c.Faults = fault.Plan{DRAMErrProb: math.NaN()}
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted a NaN DRAMErrProb")
	}
	c.Faults = fault.Plan{UnitKills: []fault.UnitKill{{Unit: c.Units(), Cycle: 1}}}
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted an out-of-range unit kill")
	}
	c.Faults = fault.MustParse("dram:0.001;slow:8-11:4;kill:5@100;link:5:+x@10")
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate rejected a sane fault plan: %v", err)
	}
}

func TestDesignStringsRoundTrip(t *testing.T) {
	for _, d := range AllDesigns {
		got, err := ParseDesign(d.String())
		if err != nil {
			t.Fatalf("ParseDesign(%q): %v", d.String(), err)
		}
		if got != d {
			t.Fatalf("round trip %v -> %v", d, got)
		}
	}
	if _, err := ParseDesign("nope"); err == nil {
		t.Fatal("ParseDesign accepted junk")
	}
}

func TestDesignTable2Matrix(t *testing.T) {
	type row struct {
		d      Design
		cache  bool
		hybrid bool
		steal  bool
	}
	rows := []row{
		{DesignH, false, false, false},
		{DesignB, false, false, false},
		{DesignSm, false, false, false},
		{DesignSl, false, false, true},
		{DesignSh, false, true, false},
		{DesignC, true, false, false},
		{DesignO, true, true, false},
	}
	for _, r := range rows {
		if r.d.UsesCache() != r.cache || r.d.UsesHybrid() != r.hybrid || r.d.UsesStealing() != r.steal {
			t.Fatalf("design %v feature matrix wrong", r.d)
		}
	}
}

func TestDesignApply(t *testing.T) {
	base := Default()
	for _, d := range NDPDesigns {
		c := d.Apply(base)
		if c.CacheEnabled != d.UsesCache() {
			t.Fatalf("Apply(%v) CacheEnabled = %v", d, c.CacheEnabled)
		}
	}
}

func TestStringers(t *testing.T) {
	if CacheTraveller.String() != "traveller" || CacheSRAM.String() != "sram" ||
		CacheDRAMTags.String() != "dramtags" {
		t.Fatal("CacheKind strings wrong")
	}
	if CacheKind(99).String() == "" {
		t.Fatal("unknown CacheKind must still print")
	}
	if ReplaceRandom.String() != "random" || ReplaceLRU.String() != "lru" {
		t.Fatal("Replacement strings wrong")
	}
	if Design(99).String() == "" {
		t.Fatal("unknown Design must still print")
	}
	if DesignH.SchedulingName() == "" || DesignB.SchedulingName() == "" {
		t.Fatal("SchedulingName empty")
	}
	for _, d := range AllDesigns {
		if d.SchedulingName() == "?" {
			t.Fatalf("SchedulingName(%v) unknown", d)
		}
	}
}

func TestValidateWindowPeriod(t *testing.T) {
	c := Default()
	c.SchedulingWindow = 4
	c.SchedulingPeriod = 0
	if err := c.Validate(); err == nil {
		t.Fatal("window without a period must be rejected")
	}
}

// Regression: CacheWays had no upper bound, so a value past 127 silently
// overflowed the Traveller Cache's int8 LRU recency ranks; CacheWays = 0
// reached a divide-by-zero in traveller.New. Both edges are now rejected.
func TestValidateCacheWaysBounds(t *testing.T) {
	mk := func(ways int) Config {
		c := Default()
		c.CacheEnabled = true
		c.CacheWays = ways
		return c
	}
	for _, ways := range []int{0, -1, MaxCacheWays + 1, 1000} {
		c := mk(ways)
		if err := c.Validate(); err == nil {
			t.Fatalf("CacheWays = %d accepted", ways)
		}
	}
	for _, ways := range []int{1, 4, MaxCacheWays} {
		c := mk(ways)
		if err := c.Validate(); err != nil {
			t.Fatalf("CacheWays = %d rejected: %v", ways, err)
		}
	}
	// Without the cache the associativity is unused and stays unchecked.
	c := mk(0)
	c.CacheEnabled = false
	if err := c.Validate(); err != nil {
		t.Fatalf("disabled cache should not validate CacheWays: %v", err)
	}
}
