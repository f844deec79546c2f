package ndp

import (
	"runtime"
	"testing"

	"abndp/internal/config"
)

// Building a System must not pay for state a run may never use. The
// Traveller cache allocates its page directory on its first fill and a
// page on the first fill into it, rather than 128 units x 32768 sets x 4
// ways of zeroed tags (about 194 MiB for designs C and O) or a directory
// of 512 page pointers per unit (0.5 MiB). The L1 allocates a 16-set page
// on its first fill, and a prefetch buffer its ring slots on its first
// insert (64 slots per unit, 0.125 MiB in all, at construction before).
// The NoC keeps one latency and one energy entry per stack pair, the
// scheduler's forwarded-load rows wait for the first placement that reads
// loads, and only design Sl, which steals, builds the 4.9 KB math/rand
// source that picks its victims. NewSystem(Default) allocates 0.136 MiB
// without a Traveller cache and 0.154 MiB with one on Go 1.24, and Sl
// 0.141 MiB. A steal source on every design (0.141 and 0.159 MiB), the
// prefetch rings, a units x units load table (128 KiB), the unit-pair NoC
// tables (192 KiB) or the dense Traveller directories would exceed the
// budgets.
func TestNewSystemAllocBudget(t *testing.T) {
	var before, after runtime.MemStats
	for _, d := range config.NDPDesigns {
		budget := 0.139 // MiB
		if d.UsesCache() {
			budget = 0.157
		}
		if d.UsesStealing() {
			budget += 0.006
		}
		runtime.ReadMemStats(&before)
		sys := NewSystem(config.Default(), d)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(sys)
		got := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		t.Logf("NewSystem(Default, %v) allocated %.3f MiB", d, got)
		if got > budget {
			t.Errorf("NewSystem(Default, %v) allocated %.3f MiB, budget %.3f MiB", d, got, budget)
		}
	}
}
