package sched

import (
	"slices"
	"strings"
	"testing"

	"abndp/internal/config"
)

// The paper's three policies plus loadonly make up the closed set, sorted
// by name, and each has a place function.
func TestRegistryHasPaperPolicies(t *testing.T) {
	want := []config.Policy{"home", "lowestdist", "hybrid", "loadonly"}
	for _, p := range want {
		if !slices.Contains(config.Policies, p) {
			t.Fatalf("policy %q missing from config.Policies %v", p, config.Policies)
		}
	}
	if len(config.Policies) != len(want) {
		t.Fatalf("config.Policies = %v, want the four policies %v", config.Policies, want)
	}
	for i, p := range config.Policies {
		if placeFunc(p) == nil {
			t.Errorf("policy %q has no place function", p)
		}
		if i > 0 && config.Policies[i-1] >= p {
			t.Fatalf("config.Policies not sorted: %v", config.Policies)
		}
	}
}

// The CLI help lists every policy of the closed set.
func TestDescribeListsEveryPolicy(t *testing.T) {
	help := Describe()
	for _, p := range config.Policies {
		if !strings.Contains(help, string(p)) {
			t.Errorf("Describe() output missing policy %q:\n%s", p, help)
		}
	}
}

// New must reject an unknown policy with a message naming it —
// config.Validate screens user input, so reaching this panic is a bug.
func TestNewPanicsOnUnknownPolicy(t *testing.T) {
	e := newEnv()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New with unknown policy did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "nosuchpolicy") {
			t.Fatalf("panic message %v does not name the unknown policy", r)
		}
	}()
	e.scheduler("nosuchpolicy", false)
}
