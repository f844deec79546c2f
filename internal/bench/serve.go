package bench

import (
	"context"
	"fmt"

	"abndp/internal/apps"
	"abndp/internal/config"
	"abndp/internal/ndp"
	"abndp/internal/obs"
)

// This file is the serving seam of the harness: the exported entry points
// internal/serve (and any other long-lived caller) uses to push single,
// fully-specified runs through the same singleflight memo cache and crash
// guard the experiment sweeps use. A warm Runner shared by a service
// process deduplicates identical jobs across clients for free — the memo
// key is the canonical (app, design, config, params) fingerprint.

// Spec fully identifies one simulation for the programmatic single-run
// entry points. Unlike the experiment methods, which derive workload
// sizing and configuration from the Runner's base config, a Spec carries
// both explicitly.
type Spec struct {
	App    string
	Design config.Design
	Config config.Config
	Params apps.Params
}

// Key returns the canonical cache key of the spec — the dedup identity of
// a run, stable across processes (config.CanonicalKey covers every field).
func (s Spec) Key() string { return key(s.App, s.Design, s.Config, s.Params) }

// DefaultParams returns the workload sizing the experiments would use for
// app (quick-aware), so a service request may omit params and still land
// on the exact cache keys the benchmark sweeps warm.
func (r *Runner) DefaultParams(app string) apps.Params { return r.params(app) }

// RunError surfaces a guarded run's recorded failure as an error: the run
// panicked or exceeded the per-run deadline, and its memoized value is the
// failure placeholder, not data.
type RunError struct{ Failure RunFailure }

func (e *RunError) Error() string {
	kind := "panicked"
	if e.Failure.Hung {
		kind = "hung"
	}
	return fmt.Sprintf("bench: run %s %s: %s", e.Failure.Key, kind, e.Failure.Err)
}

// RunOne executes (or joins) one fully specified run through the
// singleflight memo and crash guard. It is safe to call from many
// goroutines concurrently — N identical concurrent calls cost one
// simulation — and may overlap an experiment render on the same Runner.
//
// ctx bounds only the wait when another caller is already computing the
// key (the computation itself is bounded by the Runner's per-run
// deadline); an abandoned wait returns ctx.Err() while the simulation
// continues for the callers still attached. With checked set the run
// executes under the invariant audit (see SetCheck) even when Runner-wide
// check mode is off; a key that is already memoized reuses its result
// unaudited.
//
// A run that panicked or hit the deadline — now or in a previous call for
// the same key — returns the failure placeholder alongside a *RunError,
// so callers never mistake the sentinel for a real result.
func (r *Runner) RunOne(ctx context.Context, s Spec, checked bool) (*ndp.Result, error) {
	return r.RunOneObserved(ctx, s, checked, nil)
}

// RunOneObserved is RunOne with a per-run observability sink: when this
// call leads the memo computation, o (a Perfetto tracer and/or phase
// metrics) is installed on the run's System, so a serving request's trace
// carries the engine's task spans and counter tracks. When the key is
// already memoized — or another caller is mid-flight on it — no simulation
// happens here and o silently receives no engine events; the caller's
// request-level spans still apply. Observability is read-only, so the
// memoized result is byte-identical either way.
func (r *Runner) RunOneObserved(ctx context.Context, s Spec, checked bool, o *obs.Observer) (*ndp.Result, error) {
	k := s.Key()
	res, ok := r.cache.doCtx(ctx, k, func() *ndp.Result {
		r.runs.Add(1)
		return r.safeSimulate(k, runSpec{app: s.App, d: s.Design, cfg: s.Config, p: s.Params, check: checked, obsv: o})
	})
	if !ok {
		return nil, ctx.Err()
	}
	if f, failed := r.FailureFor(k); failed {
		return res, &RunError{Failure: f}
	}
	return res, nil
}

// EngineTotals sums the engine cost of every simulation executed so far:
// total events and host-side wall-clock seconds. It takes only the stats
// lock, so the serving layer's live events/sec gauge can read it on every
// scrape while workers are running.
func (r *Runner) EngineTotals() (events int64, seconds float64) {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	for _, st := range r.runStats {
		events += st.events
		seconds += st.seconds
	}
	return events, seconds
}

// SetSimHook installs a hook called before every guarded simulation with
// the run's workload and design names ("" for functional runs). Tests and
// the serving layer use it to inject delays and panics; nil removes it.
func (r *Runner) SetSimHook(f func(app, design string)) {
	if f == nil {
		r.simHook = nil
		return
	}
	r.simHook = func(s runSpec) {
		d := ""
		if s.d != config.DesignH {
			d = s.d.String()
		}
		f(s.app, d)
	}
}

// RunsExecuted returns how many simulations have actually executed so far
// (memo cache misses), safe to read while workers are running — unlike
// Metrics, which snapshots the whole harness and is meant for after the
// work quiesces.
func (r *Runner) RunsExecuted() int64 { return r.runs.Load() }

// ValidateWorkers validates the -j worker count shared by abndpbench,
// abndphypo and abndpserve: it must not be negative (0 means the
// GOMAXPROCS default). The CLIs fail fast on it instead of silently
// clamping.
func ValidateWorkers(jobs int) error {
	if jobs < 0 {
		return fmt.Errorf("bench: worker count %d is negative; use -j 0 for the GOMAXPROCS default", jobs)
	}
	return nil
}
