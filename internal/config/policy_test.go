package config

import (
	"slices"
	"strings"
	"testing"
)

// SchedPolicy is empty (the design's policy) or one of the closed set;
// any other name is rejected with the list of valid ones.
func TestValidatePolicy(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if !slices.IsSorted(Policies) {
		t.Errorf("Policies not sorted: %v", Policies)
	}
	for _, p := range Policies {
		c := Default()
		c.SchedPolicy = p
		if err := c.Validate(); err != nil {
			t.Errorf("policy %q rejected: %v", p, err)
		}
	}
	c.SchedPolicy = "nosuch"
	err := c.Validate()
	if err == nil || !strings.Contains(err.Error(), "nosuch") || !strings.Contains(err.Error(), "lowestdist") {
		t.Fatalf("unknown policy error = %v, want it to name the policy and the valid ones", err)
	}
}

// The policy binds late: setting any policy changes the canonical key but
// not the prefix key, so runs that differ only in policy share their
// checkpoint shards.
func TestPolicyKeysPartitionByBinding(t *testing.T) {
	base := Default()
	for _, p := range Policies {
		c := base
		c.SchedPolicy = p
		if c.PrefixKey() != base.PrefixKey() {
			t.Errorf("policy %q changed PrefixKey", p)
		}
		if c.CanonicalKey() == base.CanonicalKey() {
			t.Errorf("policy %q missing from CanonicalKey", p)
		}
	}
}
