package config

import (
	"fmt"
	"slices"
)

// Policy names a task placement policy (internal/sched). The set is
// closed: Validate rejects any other name, and sched.New panics on one.
type Policy string

// The placement policies. Table 2 assigns home to design B, lowestdist to
// Sm, Sl and C, and hybrid to Sh and O. loadonly is the load-only corner
// of the co-optimization ablation, reached only through SchedPolicy.
const (
	PolicyHome       Policy = "home"
	PolicyLowestDist Policy = "lowestdist"
	PolicyHybrid     Policy = "hybrid"
	PolicyLoadOnly   Policy = "loadonly"
)

// Policies lists every placement policy, sorted by name.
var Policies = []Policy{PolicyHome, PolicyHybrid, PolicyLoadOnly, PolicyLowestDist}

// validatePolicy accepts an empty SchedPolicy, which selects the design's
// Table 2 policy, or one of Policies.
func (c *Config) validatePolicy() error {
	if c.SchedPolicy == "" || slices.Contains(Policies, c.SchedPolicy) {
		return nil
	}
	return fmt.Errorf("config: unknown scheduler policy %q (one of %v)", c.SchedPolicy, Policies)
}
