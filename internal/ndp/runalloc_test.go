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
// their slots and the NoC tables are per stack pair. Nor does it pay for
// per-unit state it never uses: the Traveller directory holds only filled
// pages, L1 pages are 16 sets, a prefetch ring grows to its capacity only
// once its first 8 slots are resident, and only hybrid placement (design
// O here) keeps forwarded-load rows. Each budget sits 6-16%
// above what the run allocates on Go 1.24, input generation included (the
// input cache is off), so map-based prefetch buffers or unit-pair NoC
// tables, 17-41% more per task, would exceed it. So would the layout those
// replaced (dense Traveller directories, 64-set pages and an eagerly built
// delta table) on every design O row and on bfs on B. On pr, knn and gcn
// on B it costs only 2-3% more, within the margin, so those three budgets
// stay where the prefetch ring set them.
func TestRunAllocBudget(t *testing.T) {
	apps.EnableInputCache(false)
	for _, tc := range []struct {
		app    string
		design config.Design
		budget float64 // bytes per task
	}{
		{"pr", config.DesignB, 575},
		{"pr", config.DesignO, 600},
		{"bfs", config.DesignB, 1080},
		{"bfs", config.DesignO, 1290},
		{"knn", config.DesignB, 6050},
		{"knn", config.DesignO, 5950},
		{"gcn", config.DesignB, 495},
		{"gcn", config.DesignO, 530},
	} {
		got := bytesPerTask(t, tc.app, tc.design)
		t.Logf("%s on %v: %.0f B/task", tc.app, tc.design, got)
		if got > tc.budget {
			t.Errorf("%s on %v allocated %.0f B per task, budget %.0f", tc.app, tc.design, got, tc.budget)
		}
	}
}

// A Traveller cache over half of each unit's DRAM, direct-mapped, has 2^22
// sets per unit, and a small run fills a few of them. Its directory holds
// only the filled pages, so one whole PageRank scale-8 run on design O
// (input generation included) allocates 0.84 MiB on Go 1.24; a dense
// directory of 64-set pages, 65,536 entries per unit, allocated 65 MiB.
func TestLargeCacheRunAllocBudget(t *testing.T) {
	apps.EnableInputCache(false)
	const budget = 4.0 // MiB
	cfg := config.Default()
	cfg.CacheRatio, cfg.CacheWays = 2, 1
	a, err := apps.New("pr", apps.Params{Scale: 8, Degree: 6, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := ndp.NewSystem(cfg, config.DesignO).Run(a)
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("pr scale 8 on O, ratio 2, 1 way: %.2f MiB, %d tasks", got, res.Tasks)
	if got > budget {
		t.Errorf("pr scale 8 on O with ratio 2 and 1 way allocated %.2f MiB, budget %.1f MiB", got, budget)
	}
}
