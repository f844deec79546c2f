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
// and O). The budget keeps eager tag arrays from coming back.
func TestNewSystemAllocBudget(t *testing.T) {
	const budget = 8 << 20
	var before, after runtime.MemStats
	for _, d := range config.NDPDesigns {
		runtime.ReadMemStats(&before)
		sys := NewSystem(config.Default(), d)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(sys)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("NewSystem(Default, %v) allocated %.2f MiB", d, float64(got)/(1<<20))
		if got > budget {
			t.Errorf("NewSystem(Default, %v) allocated %.2f MiB, budget %d MiB",
				d, float64(got)/(1<<20), budget>>20)
		}
	}
}
