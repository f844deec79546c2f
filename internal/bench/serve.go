package bench

import (
	"context"
	"fmt"
	"time"

	"abndp/internal/apps"
	"abndp/internal/config"
	"abndp/internal/ndp"
	"abndp/internal/obs"
)

// This file is the single-run seam of the harness: the exported entry
// points internal/serve, internal/hypo and other long-lived callers use to
// run one fully specified simulation under the crash guard the experiment
// sweeps use. Unlike the sweeps, the seam does not memoize: every call
// simulates, and a caller that wants one simulation per key deduplicates
// by Spec.Key itself, as internal/serve does per job.

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
// app (quick-aware), which a service request that omits params gets.
func (r *Runner) DefaultParams(app string) apps.Params { return r.params(app) }

// RunError surfaces a guarded run's recorded failure as an error: the run
// panicked or exceeded the per-run deadline, and the result returned with
// it is the failure placeholder, not data.
type RunError struct{ Failure RunFailure }

func (e *RunError) Error() string {
	kind := "panicked"
	if e.Failure.Hung {
		kind = "hung"
	}
	return fmt.Sprintf("bench: run %s %s: %s", e.Failure.Key, kind, e.Failure.Err)
}

// RunOne executes one fully specified run under the crash guard. Every
// call simulates: two calls for one spec run twice, with equal
// ResultHash. It is safe to call from many goroutines concurrently and may
// overlap an experiment render on the same Runner.
//
// ctx is checked once, before the run starts; the run itself is bounded by
// the Runner's per-run deadline. With checked set the run executes under
// the invariant audit (see SetCheck) even when Runner-wide check mode is
// off.
//
// A run that panicked or hit the deadline returns the failure placeholder
// alongside a *RunError, so callers never mistake the sentinel for a real
// result.
func (r *Runner) RunOne(ctx context.Context, s Spec, checked bool) (*ndp.Result, error) {
	res, _, err := r.RunOneObserved(ctx, s, checked, nil)
	return res, err
}

// RunOneObserved is RunOne with a per-run observability sink: o (a
// Perfetto tracer and/or phase metrics), when non-nil, is installed on the
// run's System, so a serving request's trace carries the engine's task
// spans and counter tracks. Observability is read-only, so the result is
// byte-identical either way. It also returns how many invariant violations
// the run's audit recorded (0 when it ran unaudited).
func (r *Runner) RunOneObserved(ctx context.Context, s Spec, checked bool, o *obs.Observer) (*ndp.Result, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	k := s.Key()
	out, f := r.safeSimulate(k, runSpec{app: s.App, d: s.Design, cfg: s.Config, p: s.Params, check: checked, obsv: o})
	if f != nil {
		return out.res, 0, &RunError{Failure: *f}
	}
	return out.res, out.violations, nil
}

// EngineTotals sums the engine cost of every timing simulation executed so
// far: total events and host-side wall-clock seconds. It reads two atomic
// sums, so the serving layer's live events/sec gauge can read it on every
// scrape while workers are running.
func (r *Runner) EngineTotals() (events int64, seconds float64) {
	return r.events.Load(), time.Duration(r.nanos.Load()).Seconds()
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

// RunsExecuted returns how many simulations have executed so far (the
// memo's misses and every RunOne call), safe to read while workers are
// running — unlike Metrics, which snapshots the whole harness and is meant
// for after the work quiesces.
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
