package ndp

import (
	"runtime"
	"testing"

	"abndp/internal/config"
)

// Building a System must not pay for tag storage up front: the Traveller
// and L1 tag directories allocate a page on its first fill, so construction
// costs the directories and the per-unit models rather than 128 units x
// 32768 sets x 4 ways of zeroed Traveller tags (about 194 MiB for designs C
// and O). Nor does it pay for unit-pair tables: the NoC keeps one latency
// and one energy entry per stack pair. NewSystem(Default) allocates 0.37
// MiB without a Traveller cache and 0.99 MiB with one on Go 1.24; the
// 16,384-entry unit-pair latency and energy tables (192 KiB) would exceed
// either budget.
func TestNewSystemAllocBudget(t *testing.T) {
	var before, after runtime.MemStats
	for _, d := range config.NDPDesigns {
		budget := 0.5 // MiB
		if d.UsesCache() {
			budget = 1.15
		}
		runtime.ReadMemStats(&before)
		sys := NewSystem(config.Default(), d)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(sys)
		got := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		t.Logf("NewSystem(Default, %v) allocated %.2f MiB", d, got)
		if got > budget {
			t.Errorf("NewSystem(Default, %v) allocated %.2f MiB, budget %.2f MiB", d, got, budget)
		}
	}
}
