package bench

import (
	"io"
	"testing"

	"abndp/internal/apps"
)

// Both the inline path (-j 1: planAndExecute returns early and every run
// executes inside render) and the pooled path count their runs and engine
// events.
func TestMetricsCountRunsAndEvents(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
	}{{"SingleWorker", 1}, {"Pooled", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRunner(io.Discard)
			r.SetQuick(true)
			r.SetWorkers(tc.workers)
			if err := r.Run("fig17"); err != nil {
				t.Fatal(err)
			}
			if m := r.Metrics(); m.Runs <= 0 || m.EventsTotal <= 0 {
				t.Fatalf("-j %d: runs %d, events_total %d; want both > 0", tc.workers, m.Runs, m.EventsTotal)
			}
		})
	}
}

// A bare Runner carries the checkpoint store and switches the input cache
// on by itself, so its metrics report store inserts and input-cache hits
// without any setter.
func TestMetricsCheckpointCounters(t *testing.T) {
	apps.EnableInputCache(false)
	hits0, _ := apps.InputCacheStats()
	r := NewRunner(io.Discard)
	r.SetQuick(true)
	r.SetWorkers(1)
	if err := r.Run("fig17"); err != nil {
		t.Fatal(err)
	}
	m := r.Metrics()
	if m.Checkpoint.Inserts == 0 {
		t.Fatalf("checkpoint store never inserted: %+v", m.Checkpoint)
	}
	if m.InputCacheHits <= hits0 {
		t.Fatalf("fig17 sweep shares one input; expected input cache hits, got %d (%d before)",
			m.InputCacheHits, hits0)
	}
}
