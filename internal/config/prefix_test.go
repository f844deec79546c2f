package config

import (
	"reflect"
	"strings"
	"testing"
)

// TestPrefixKeyCoversEveryField mutates each Config field in turn: fields
// in the prefix must change the key, exempt (late-binding) fields must
// not. A newly added field that neither appears in PrefixKey nor in
// prefixExemptFields fails in the "must change" direction, forcing an
// explicit decision about which side of the partition it belongs to.
func TestPrefixKeyCoversEveryField(t *testing.T) {
	base := Default()
	ref := base.PrefixKey()
	n := reflect.TypeOf(base).NumField()
	for i := 0; i < n; i++ {
		c := base
		name := perturb(t, &c, i)
		changed := c.PrefixKey() != ref
		if prefixExemptFields[name] && changed {
			t.Errorf("late-binding field %s changed PrefixKey — sweep points varying it will not share a prefix", name)
		}
		if !prefixExemptFields[name] && !changed {
			t.Errorf("mutating %s did not change PrefixKey — prefix collision", name)
		}
	}
}

func TestPrefixKeySharedAcrossSchedulerKnobs(t *testing.T) {
	a, b := Default(), Default()
	b.HybridAlpha = 3
	b.StealBatch = 16
	b.InformedStealing = true
	b.SchedulingWindow = 4
	b.SchedulingPeriod = 128
	b.ExchangeInterval = 20_000
	if a.PrefixKey() != b.PrefixKey() {
		t.Fatal("scheduler-knob variants must share a prefix key")
	}
	if a.CanonicalKey() == b.CanonicalKey() {
		t.Fatal("scheduler-knob variants must still have distinct canonical keys")
	}
}

// The canonical key is the prefix key followed by the late-binding knobs,
// so two configurations with equal canonical keys share a prefix.
func TestCanonicalKeyStartsWithPrefixKey(t *testing.T) {
	base := Default()
	n := reflect.TypeOf(base).NumField()
	for i := 0; i < n; i++ {
		c := base
		name := perturb(t, &c, i)
		if !strings.HasPrefix(c.CanonicalKey(), c.PrefixKey()) {
			t.Errorf("mutating %s: CanonicalKey %q does not start with PrefixKey %q", name, c.CanonicalKey(), c.PrefixKey())
		}
	}
}
