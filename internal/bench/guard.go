package bench

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"abndp/internal/apps"
	"abndp/internal/ndp"
	"abndp/internal/stats"
)

// RunFailure records one simulation that panicked or exceeded the per-run
// wall-clock deadline. Failures ride along in the harness metrics JSON
// (`abndpbench -benchjson`) so a crashed configuration is a recorded data
// point, not a lost sweep.
type RunFailure struct {
	Key    string `json:"key"` // cache key: app|design|config#params
	App    string `json:"app"`
	Design string `json:"design,omitempty"` // "" for functional runs
	Err    string `json:"err"`
	Stack  string `json:"stack,omitempty"` // panic stack; empty for hangs
	Hung   bool   `json:"hung,omitempty"`
}

// defaultRunDeadline bounds one simulation's wall clock. The full-size
// benchmark runs finish in seconds to low minutes; a run still going after
// ten minutes is wedged, and waiting on it would hang the whole sweep.
const defaultRunDeadline = 10 * time.Minute

// SetRunDeadline overrides the per-run wall-clock deadline; d <= 0 disables
// the deadline entirely (runs may block forever, the pre-guard behavior).
func (r *Runner) SetRunDeadline(d time.Duration) {
	r.runDeadline = d
	r.deadlineSet = true
}

func (r *Runner) effectiveDeadline() time.Duration {
	if r.deadlineSet {
		return r.runDeadline
	}
	return defaultRunDeadline
}

// recordFailure appends one failure under the Runner's failure lock and
// reports it on the progress stream.
func (r *Runner) recordFailure(f RunFailure) {
	r.failMu.Lock()
	r.failures = append(r.failures, f)
	r.failMu.Unlock()
	r.progressf("  FAILED %s: %s\n", f.Key, f.Err)
}

// Failures returns the failures recorded so far (a copy; safe to keep).
func (r *Runner) Failures() []RunFailure {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	return append([]RunFailure(nil), r.failures...)
}

// guardOutcome carries a guarded call's result across its goroutine.
type guardOutcome[V any] struct {
	val      V
	panicked bool
	msg      string
	stack    string
}

// halter collects the Systems of one guarded run, so that the guard can
// halt all of them when it abandons the run. A System that registers after
// the halt (the plain rerun of a checked simulation) is halted as it
// registers, so no System of an abandoned run simulates on.
type halter struct {
	mu      sync.Mutex
	halted  bool
	systems []*ndp.System
}

// add registers sys and returns it.
func (h *halter) add(sys *ndp.System) *ndp.System {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.halted {
		sys.Engine.Halt()
	}
	h.systems = append(h.systems, sys)
	return sys
}

// halt halts every registered System and every later one.
func (h *halter) halt() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.halted = true
	for _, sys := range h.systems {
		sys.Engine.Halt()
	}
}

// runGuarded executes fn with crash isolation and counts it as one
// executed simulation: fn runs on its own goroutine, a panic becomes a
// recorded RunFailure instead of unwinding the worker, and a run exceeding
// the deadline is abandoned and recorded as hung. fn registers the Systems
// it builds with its halter, and an abandoned run's Systems are halted:
// each stops at its next event and its goroutine exits, so it does not
// keep a core. Input generation (an app's Setup) runs before the first
// event and is not interrupted. On failure the sentinel is returned with
// the recorded failure, so a sweep's remaining rows render unchanged and
// a single-run caller can report the failure.
func runGuarded[V any](r *Runner, f RunFailure, sentinel V, fn func(*halter) V) (V, *RunFailure) {
	r.runs.Add(1)
	ch := make(chan guardOutcome[V], 1) // buffered: a timed-out run's late send must not leak its goroutine
	h := &halter{}
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- guardOutcome[V]{panicked: true, msg: fmt.Sprint(p), stack: string(debug.Stack())}
			}
		}()
		ch <- guardOutcome[V]{val: fn(h)}
	}()

	var expired <-chan time.Time // nil, so never ready, without a deadline
	deadline := r.effectiveDeadline()
	if deadline > 0 {
		timer := time.NewTimer(deadline)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case o := <-ch:
		if !o.panicked {
			return o.val, nil
		}
		f.Err, f.Stack = o.msg, o.stack
	case <-expired:
		h.halt()
		f.Err, f.Hung = fmt.Sprintf("exceeded the %s per-run deadline", deadline), true
	}
	r.recordFailure(f)
	return sentinel, &f
}

// simulated is a guarded timing run's outcome: its result, and how many
// invariant violations its audit recorded (0 when it ran unaudited).
type simulated struct {
	res        *ndp.Result
	violations int
}

// safeSimulate is simulate with crash isolation; every timing simulation
// runs through it. A failed run resolves to failedResult.
func (r *Runner) safeSimulate(k string, spec runSpec) (simulated, *RunFailure) {
	return runGuarded(r, RunFailure{Key: k, App: spec.app, Design: spec.d.String()},
		simulated{res: failedResult}, func(h *halter) simulated {
			if r.simHook != nil {
				r.simHook(spec)
			}
			if r.checkRuns || spec.check {
				return r.checkedSimulate(k, spec, h)
			}
			return simulated{res: r.simulate(spec, h)}
		})
}

// safeFunctional is the functional characterization with crash isolation.
func (r *Runner) safeFunctional(k string, spec funcSpec) *ndp.FunctionalResult {
	res, _ := runGuarded(r, RunFailure{Key: k, App: spec.app},
		failedFunctional, func(*halter) *ndp.FunctionalResult {
			if r.simHook != nil {
				r.simHook(runSpec{app: spec.app, p: spec.p})
			}
			a, err := apps.New(spec.app, spec.p)
			if err != nil {
				panic(err)
			}
			return ndp.RunFunctional(r.base, a)
		})
	return res
}

// failedResult is the placeholder a crashed or hung run resolves to: shaped
// like planResult (every metric nonzero) so rendering the sweep's remaining
// tables cannot divide by zero or panic, and marked unrecoverable so the
// row is visibly wrong rather than plausibly real.
var failedResult = func() *ndp.Result {
	st := stats.NewSystem(1, 1)
	st.Units[0].ActiveCycles[0] = 1
	st.Makespan, st.Tasks, st.Steps = 1, 1, 1
	res := &ndp.Result{Makespan: 1, Seconds: 1, Tasks: 1, Steps: 1, InterHops: 1,
		Unrecoverable: "run failed (see harness failures)", Stats: st}
	res.Energy.CoreSRAM, res.Energy.DRAM, res.Energy.Interconnect, res.Energy.Static = 1, 1, 1, 1
	return res
}()

var failedFunctional = &ndp.FunctionalResult{
	Instructions: 1, LineAccesses: 1, Footprint: 1, Tasks: 1, Steps: 1,
}
