// Package obs is the simulator-wide observability subsystem: a structured
// span/instant/counter tracer with a Chrome trace-event (Perfetto) JSON
// exporter, phase-resolved metric histograms and interval snapshots,
// per-instance metric registries rendered as Prometheus text and flat
// JSON, and a pprof debug HTTP endpoint.
//
// Design rule: observability is zero-cost when off. The NDP runtime holds a
// single *Observer pointer that is nil in the default configuration; every
// probe site guards with one nil check and performs no allocation, no map
// lookup, and no interface call on the disabled path. The PR-1 hot-path
// guarantees (0 amortized allocs per engine event, 38 allocs per 1M events)
// therefore hold with observability compiled in, and regression tests in
// internal/sim and internal/ndp assert both the allocation count and that
// enabling every probe leaves simulation results byte-identical — probes
// read simulator state but never mutate it.
package obs

// Observer bundles the optional instrumentation sinks threaded through the
// simulator. Any field may be nil/zero independently:
//
//   - Trace receives span, instant, and counter events and writes them as
//     Chrome trace-event JSON (open the file in ui.perfetto.dev).
//   - Metrics accumulates phase-resolved histograms and counters (one Phase
//     per bulk-synchronous timestamp) and is linked into stats.System.
//   - SampleInterval > 0 arms a periodic sampler that emits the counter
//     tracks (busy cores, queue depth, DRAM backlog, Traveller hit rate)
//     every that many cycles.
type Observer struct {
	Trace   *Tracer
	Metrics *Metrics

	// SampleInterval is the counter-track sampling period in core cycles.
	// Zero disables periodic sampling (spans and phase metrics still work).
	SampleInterval int64
}

// Enabled reports whether o carries at least one active sink. A nil
// Observer is always disabled.
func (o *Observer) Enabled() bool {
	return o != nil && (o.Trace != nil || o.Metrics != nil)
}
