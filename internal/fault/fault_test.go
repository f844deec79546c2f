package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []struct {
		spec string
		want Plan
	}{
		{"", Plan{}},
		{"dram:0.001", Plan{DRAMErrProb: 0.001}},
		{"dram:0.01:5", Plan{DRAMErrProb: 0.01, DRAMRetryMax: 5}},
		{"slow:7:4", Plan{Stragglers: []Straggler{{Unit: 7, CoreFactor: 4, ChanFactor: 1}}}},
		{"slow:8-10:2:3@100-900", Plan{Stragglers: []Straggler{
			{Unit: 8, CoreFactor: 2, ChanFactor: 3, From: 100, Until: 900},
			{Unit: 9, CoreFactor: 2, ChanFactor: 3, From: 100, Until: 900},
			{Unit: 10, CoreFactor: 2, ChanFactor: 3, From: 100, Until: 900},
		}}},
		{"kill:5@4000;kill:70@4000", Plan{UnitKills: []UnitKill{{5, 4000}, {70, 4000}}}},
		{"kill:2-3@10", Plan{UnitKills: []UnitKill{{2, 10}, {3, 10}}}},
		{"link:5:+x@2000", Plan{LinkKills: []LinkKill{{Stack: 5, Dir: DirPosX, Cycle: 2000}}}},
		{"link:0:-y@1", Plan{LinkKills: []LinkKill{{Stack: 0, Dir: DirNegY, Cycle: 1}}}},
		{"retry:4", Plan{TaskRetryMax: 4}},
		{"seed:99", Plan{Seed: 99}},
		{"dram:0:1", Plan{DRAMRetryMax: 1}},
		{"dram:0.001;slow:0:2;kill:1@5;link:2:+y@6;retry:3;seed:7", Plan{
			DRAMErrProb:  0.001,
			Stragglers:   []Straggler{{Unit: 0, CoreFactor: 2, ChanFactor: 1}},
			UnitKills:    []UnitKill{{1, 5}},
			LinkKills:    []LinkKill{{Stack: 2, Dir: DirPosY, Cycle: 6}},
			TaskRetryMax: 3,
			Seed:         7,
		}},
	}
	for _, tc := range cases {
		got, err := Parse(tc.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Parse(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
		// Round trip: rendering and re-parsing reproduces the plan.
		rt, err := Parse(got.String())
		if err != nil {
			t.Errorf("Parse(String(%q)): %v", tc.spec, err)
		} else if !reflect.DeepEqual(rt, got) {
			t.Errorf("round trip of %q: %+v != %+v", tc.spec, rt, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus:1", "dram", "dram:x", "dram:0.1:1:2", "slow:3", "slow:a:2",
		"slow:3:x", "slow:5-2:2", "kill:3", "kill:x@5", "kill:3@x",
		"link:1@5", "link:1:z@5", "link:1:+x@x", "retry:x", "seed:x",
		"kill:0-1024@5", "slow:11-408888888:100", "kill:0-2000000000@1",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted invalid spec", spec)
		}
	}
}

func TestValidate(t *testing.T) {
	const units, stacks = 128, 16
	ok := MustParse("dram:0.001;slow:8-11:4;kill:5@100;link:5:+x@10")
	if err := ok.Validate(units, stacks); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad := []Plan{
		{DRAMErrProb: math.NaN()},
		{DRAMErrProb: math.Inf(1)},
		{DRAMErrProb: -0.1},
		{DRAMErrProb: 1},
		{DRAMRetryMax: -1},
		{TaskRetryMax: -2},
		{Stragglers: []Straggler{{Unit: 128, CoreFactor: 2, ChanFactor: 1}}},
		{Stragglers: []Straggler{{Unit: -1, CoreFactor: 2, ChanFactor: 1}}},
		{Stragglers: []Straggler{{Unit: 0, CoreFactor: 0.5, ChanFactor: 1}}},
		{Stragglers: []Straggler{{Unit: 0, CoreFactor: math.NaN(), ChanFactor: 1}}},
		{Stragglers: []Straggler{{Unit: 0, CoreFactor: 2, ChanFactor: math.Inf(1)}}},
		{Stragglers: []Straggler{{Unit: 0, CoreFactor: 2, ChanFactor: 1, From: 50, Until: 10}}},
		{Stragglers: []Straggler{{Unit: 0, CoreFactor: 2, ChanFactor: 1, From: -1}}},
		{UnitKills: []UnitKill{{Unit: 200, Cycle: 1}}},
		{UnitKills: []UnitKill{{Unit: 1, Cycle: -5}}},
		{LinkKills: []LinkKill{{Stack: 16, Dir: 0, Cycle: 1}}},
		{LinkKills: []LinkKill{{Stack: 0, Dir: 4, Cycle: 1}}},
		{LinkKills: []LinkKill{{Stack: 0, Dir: 0, Cycle: -1}}},
	}
	for i, p := range bad {
		if err := p.Validate(units, stacks); err == nil {
			t.Errorf("bad plan %d (%+v) accepted", i, p)
		}
	}
}

// TestPlanKeyCoversEveryField mutates each Plan field (including one field
// of each nested fault record) and requires Key to change, mirroring
// config.TestCanonicalKeyCoversEveryField: a new field that Key forgets is
// a silent bench cache collision.
func TestPlanKeyCoversEveryField(t *testing.T) {
	base := MustParse("dram:0.125;slow:3:2:4@10-90;kill:5@100;link:2:+y@50;retry:6;seed:9")
	ref := base.Key()
	mutate := func(name string, f func(*Plan)) {
		p := base
		// Deep-copy the slices so mutations do not leak into base.
		p.Stragglers = append([]Straggler(nil), base.Stragglers...)
		p.UnitKills = append([]UnitKill(nil), base.UnitKills...)
		p.LinkKills = append([]LinkKill(nil), base.LinkKills...)
		f(&p)
		if p.Key() == ref {
			t.Errorf("mutating %s did not change Key", name)
		}
	}
	mutate("Seed", func(p *Plan) { p.Seed++ })
	mutate("DRAMErrProb", func(p *Plan) { p.DRAMErrProb += 0.125 })
	mutate("DRAMRetryMax", func(p *Plan) { p.DRAMRetryMax++ })
	mutate("TaskRetryMax", func(p *Plan) { p.TaskRetryMax++ })
	mutate("Straggler.Unit", func(p *Plan) { p.Stragglers[0].Unit++ })
	mutate("Straggler.CoreFactor", func(p *Plan) { p.Stragglers[0].CoreFactor++ })
	mutate("Straggler.ChanFactor", func(p *Plan) { p.Stragglers[0].ChanFactor++ })
	mutate("Straggler.From", func(p *Plan) { p.Stragglers[0].From++ })
	mutate("Straggler.Until", func(p *Plan) { p.Stragglers[0].Until++ })
	mutate("Stragglers(len)", func(p *Plan) { p.Stragglers = p.Stragglers[:0] })
	mutate("UnitKill.Unit", func(p *Plan) { p.UnitKills[0].Unit++ })
	mutate("UnitKill.Cycle", func(p *Plan) { p.UnitKills[0].Cycle++ })
	mutate("UnitKills(len)", func(p *Plan) { p.UnitKills = p.UnitKills[:0] })
	mutate("LinkKill.Stack", func(p *Plan) { p.LinkKills[0].Stack++ })
	mutate("LinkKill.Dir", func(p *Plan) { p.LinkKills[0].Dir = DirNegY })
	mutate("LinkKill.Cycle", func(p *Plan) { p.LinkKills[0].Cycle++ })
	mutate("LinkKills(len)", func(p *Plan) { p.LinkKills = p.LinkKills[:0] })

	// Every exported field of Plan (and its record types) must have been
	// mutated above; fail when a new field appears without coverage.
	covered := map[string]int{"Plan": 7, "Straggler": 5, "UnitKill": 2, "LinkKill": 3}
	for typ, n := range map[string]int{
		"Plan":      reflect.TypeOf(Plan{}).NumField(),
		"Straggler": reflect.TypeOf(Straggler{}).NumField(),
		"UnitKill":  reflect.TypeOf(UnitKill{}).NumField(),
		"LinkKill":  reflect.TypeOf(LinkKill{}).NumField(),
	} {
		if n != covered[typ] {
			t.Errorf("%s has %d fields but the key-coverage test mutates %d; extend both it and Key", typ, n, covered[typ])
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	p := MustParse("dram:0.25;seed:5")
	a, b := NewInjector(p, 8, 4), NewInjector(p, 8, 4)
	for i := 0; i < 1000; i++ {
		ra, ua := a.DRAMFault()
		rb, ub := b.DRAMFault()
		if ra != rb || ua != ub {
			t.Fatalf("draw %d diverged: (%d,%v) vs (%d,%v)", i, ra, ua, rb, ub)
		}
	}
}

func TestInjectorDRAMFaultBudget(t *testing.T) {
	p := Plan{DRAMErrProb: 0.999, DRAMRetryMax: 3}
	in := NewInjector(p, 1, 1)
	sawUncorrected := false
	for i := 0; i < 100; i++ {
		retries, unc := in.DRAMFault()
		if retries > 3 {
			t.Fatalf("retries %d exceeds budget", retries)
		}
		if unc {
			sawUncorrected = true
		}
	}
	if !sawUncorrected {
		t.Fatal("p=0.999 never exhausted the retry budget")
	}

	// Disabled class: no draws, no retries, no RNG movement.
	off := NewInjector(Plan{}, 1, 1)
	rng := off.rng
	if r, u := off.DRAMFault(); r != 0 || u {
		t.Fatal("disabled DRAM class injected a fault")
	}
	if off.rng != rng {
		t.Fatal("disabled DRAM class advanced the RNG")
	}
}

func TestInjectorMasksAndFactors(t *testing.T) {
	p := MustParse("slow:2:4:2@100-200;slow:2:3@150")
	in := NewInjector(p, 4, 2)

	if in.CoreFactor(2, 50) != 1 || in.ChanFactor(2, 50) != 1 {
		t.Errorf("factors before window: core=%v chan=%v", in.CoreFactor(2, 50), in.ChanFactor(2, 50))
	}
	if f := in.CoreFactor(2, 120); f != 4 {
		t.Errorf("CoreFactor(2,120) = %v, want 4", f)
	}
	if f := in.CoreFactor(2, 160); f != 12 { // overlapping windows multiply
		t.Errorf("CoreFactor(2,160) = %v, want 12", f)
	}
	if f := in.CoreFactor(2, 300); f != 3 { // open-ended second window
		t.Errorf("CoreFactor(2,300) = %v, want 3", f)
	}
	if f := in.ChanFactor(2, 120); f != 2 {
		t.Errorf("ChanFactor(2,120) = %v, want 2", f)
	}
	if f := in.CoreFactor(1, 120); f != 1 {
		t.Errorf("CoreFactor(1,120) = %v, want 1", f)
	}

	if !in.MarkUnitDead(3) || in.MarkUnitDead(3) {
		t.Error("MarkUnitDead double-report")
	}
	if !in.UnitDead(3) || in.UnitDead(0) || in.LiveUnits() != 3 {
		t.Error("dead-unit mask wrong")
	}
	if !in.MarkLinkDead(1, DirPosY) || in.MarkLinkDead(1, DirPosY) {
		t.Error("MarkLinkDead double-report")
	}
	if !in.LinkDead(1, DirPosY) || in.LinkDead(1, DirPosX) {
		t.Error("dead-link mask wrong")
	}
}

func TestEmptyAndKey(t *testing.T) {
	var p Plan
	if !p.Empty() {
		t.Fatal("zero plan not empty")
	}
	if p.Key() != "-" {
		t.Fatalf("zero plan key = %q", p.Key())
	}
	p.TaskRetryMax = 4 // budgets alone do not activate the layer
	if !p.Empty() {
		t.Fatal("budget-only plan should stay empty")
	}
	if p.Key() == "-" {
		t.Fatal("budget-only plan must still change the key")
	}
	q := MustParse("dram:0.1")
	if q.Empty() {
		t.Fatal("dram plan reported empty")
	}
	if !strings.Contains(q.Key(), "0.1") {
		t.Fatalf("key %q misses the probability", q.Key())
	}
}
