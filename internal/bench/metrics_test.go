package bench

import (
	"io"
	"testing"

	"abndp/internal/apps"
)

// Regression for the BENCH json bug where a single-worker sweep reported
// sim_seconds 0: planAndExecute early-returns when there is no pool to
// fill, so only the inline per-run accounting can observe the runs.
func TestMetricsSimSecondsNonzeroSingleWorker(t *testing.T) {
	r := NewRunner(io.Discard)
	r.SetQuick(true)
	r.SetWorkers(1)
	if err := r.Run("fig17"); err != nil {
		t.Fatal(err)
	}
	m := r.Metrics()
	if m.Runs == 0 {
		t.Fatal("no runs executed")
	}
	if m.SimSeconds <= 0 {
		t.Fatalf("single-worker sweep reported sim_seconds %v", m.SimSeconds)
	}
	if m.EventsTotal <= 0 || m.EventsPerSec <= 0 {
		t.Fatalf("events_total %d events_per_sec %v", m.EventsTotal, m.EventsPerSec)
	}
	// TotalSeconds must not double-count inline sim time (it is already
	// inside the experiment render wall-clock).
	var exp float64
	for _, e := range m.Experiments {
		exp += e.Seconds
	}
	if m.TotalSeconds > exp+m.PlanSeconds+1e-6 {
		t.Fatalf("total_seconds %v double-counts inline sim (experiments %v plan %v)",
			m.TotalSeconds, exp, m.PlanSeconds)
	}
}

// The pooled path must report sim_seconds too (the pool phase wall-clock),
// and the per-experiment rows must attribute events to the experiments
// that referenced the runs.
func TestMetricsSimSecondsNonzeroPooled(t *testing.T) {
	r := NewRunner(io.Discard)
	r.SetQuick(true)
	r.SetWorkers(2)
	if err := r.Run("fig17"); err != nil {
		t.Fatal(err)
	}
	m := r.Metrics()
	if m.SimSeconds <= 0 {
		t.Fatalf("pooled sweep reported sim_seconds %v", m.SimSeconds)
	}
	if len(m.Experiments) != 1 {
		t.Fatalf("experiments rows %d (plan replay must not add rows)", len(m.Experiments))
	}
	row := m.Experiments[0]
	if row.Name != "fig17" || row.EventsTotal <= 0 || row.SimSeconds <= 0 || row.EventsPerSec <= 0 {
		t.Fatalf("experiment row not attributed: %+v", row)
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

// The warm sweep must produce matching hashes and a speedup > 1 even at
// quick sizes, and must land in the metrics JSON.
func TestWarmSweepQuickParity(t *testing.T) {
	r := NewRunner(io.Discard)
	r.SetQuick(true)
	m := r.RunWarmSweep()
	if !m.HashesMatch {
		t.Fatal("warm sweep hashes diverged from cold")
	}
	if m.Points != len(hybridAlphas) {
		t.Fatalf("points %d, want %d", m.Points, len(hybridAlphas))
	}
	if m.Checkpoint.Hits == 0 || m.Checkpoint.Inserts == 0 {
		t.Fatalf("warm path never used the store: %+v", m.Checkpoint)
	}
	if m.EventsCold != m.EventsWarm {
		t.Fatalf("event counts diverged: cold %d warm %d", m.EventsCold, m.EventsWarm)
	}
	if got := r.Metrics().WarmSweep; got == nil || got.Speedup != m.Speedup {
		t.Fatal("warm sweep result not recorded in metrics")
	}
}
