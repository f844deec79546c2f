package ndp_test

import (
	"runtime"
	"testing"

	"abndp/internal/apps"
	"abndp/internal/config"
	"abndp/internal/ndp"
)

// bytesPerTask returns the bytes allocated by NewSystem + Run per executed
// task, with inputs generated fresh inside Run.
func bytesPerTask(t *testing.T, app string, d config.Design) float64 {
	t.Helper()
	a, err := apps.New(app, apps.Params{Scale: 12, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := ndp.NewSystem(config.Default(), d).Run(a)
	runtime.ReadMemStats(&after)
	if res.Tasks == 0 {
		t.Fatalf("%s on %v executed no tasks", app, d)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Tasks)
}

// A run must not allocate per memory access: the prefetch buffers recycle
// their slots and the NoC tables are per stack pair. Each budget sits
// 8-10% above what the run allocates on Go 1.24, input generation included
// (the input cache is off), so map-based prefetch buffers or unit-pair NoC
// tables, 17-41% more per task, would exceed it.
func TestRunAllocBudget(t *testing.T) {
	apps.EnableInputCache(false)
	for _, tc := range []struct {
		app    string
		design config.Design
		budget float64 // bytes per task
	}{
		{"pr", config.DesignB, 575},
		{"pr", config.DesignO, 675},
		{"bfs", config.DesignB, 1200},
		{"bfs", config.DesignO, 1610},
		{"knn", config.DesignB, 6050},
		{"knn", config.DesignO, 6550},
		{"gcn", config.DesignB, 495},
		{"gcn", config.DesignO, 580},
	} {
		got := bytesPerTask(t, tc.app, tc.design)
		t.Logf("%s on %v: %.0f B/task", tc.app, tc.design, got)
		if got > tc.budget {
			t.Errorf("%s on %v allocated %.0f B per task, budget %.0f", tc.app, tc.design, got, tc.budget)
		}
	}
}
