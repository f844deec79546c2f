package bench

import (
	"encoding/json"
	"os"
	"runtime"
	"time"

	"abndp/internal/apps"
	"abndp/internal/ckpt"
)

// Metrics is the harness's record of one sweep (`abndpbench -benchjson`):
// counters that add up, such as runs executed and engine events, the
// caches' counters, the sweep's failures and audit outcome, and the
// process's resource footprint. Host timing is perfbench's job
// (BENCHMARK.json), so no field here is a wall-clock time.
type Metrics struct {
	Date       string `json:"date,omitempty"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Quick      bool   `json:"quick"`
	Runs       int64  `json:"runs"` // simulations executed (cache misses)

	// EventsTotal is the engine events executed across every simulated
	// run, each run counted once however many experiments referenced it.
	EventsTotal int64 `json:"events_total"`

	// Checkpoint carries the Runner's store counters; the input-cache
	// counters track workload graph reuse.
	Checkpoint       ckpt.Stats `json:"checkpoint"`
	InputCacheHits   int64      `json:"input_cache_hits,omitempty"`
	InputCacheMisses int64      `json:"input_cache_misses,omitempty"`

	// Failures lists runs that panicked or hung (guard.go). A non-empty
	// list means the corresponding table rows hold placeholder values.
	Failures []RunFailure `json:"failures,omitempty"`

	// Invariant-audit outcome, populated in check mode (Runner.SetCheck):
	// how many runs were audited, how many invariant evaluations they
	// performed, and every recorded breach. A non-empty CheckViolations
	// means the sweep's numbers are suspect.
	CheckedRuns     int64            `json:"checked_runs,omitempty"`
	CheckEvals      int64            `json:"check_evals,omitempty"`
	CheckViolations []CheckViolation `json:"check_violations,omitempty"`

	// Process-wide resource footprint, snapshotted when the metrics are
	// collected: OS peak resident set (0 on platforms without getrusage)
	// and the Go runtime's cumulative allocation counters.
	PeakRSSBytes    int64  `json:"peak_rss_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	Mallocs         uint64 `json:"mallocs"`
	NumGC           uint32 `json:"num_gc"`
}

// Metrics snapshots the harness counters collected so far.
func (r *Runner) Metrics() Metrics {
	m := Metrics{
		Date:       time.Now().Format("2006-01-02T15:04:05Z07:00"),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    r.Workers(),
		Quick:      r.quick,
		Runs:       r.RunsExecuted(),
		Checkpoint: r.store.Stats(),
		Failures:   r.Failures(),
	}
	m.EventsTotal, _ = r.EngineTotals()
	m.InputCacheHits, m.InputCacheMisses = apps.InputCacheStats()
	m.CheckedRuns, m.CheckEvals = r.CheckCounts()
	m.CheckViolations = r.CheckViolations()
	m.PeakRSSBytes = peakRSSBytes()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.TotalAllocBytes, m.Mallocs, m.NumGC = ms.TotalAlloc, ms.Mallocs, ms.NumGC
	return m
}

// WriteJSON writes the metrics as an indented JSON file.
func (m Metrics) WriteJSON(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
