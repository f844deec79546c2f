package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"abndp/internal/apps"
	"abndp/internal/check"
	"abndp/internal/ndp"
)

// CheckViolation ties one invariant breach to the run that produced it, so
// a failed sweep-wide audit names the exact (app, design, config) cell.
type CheckViolation struct {
	Key       string          `json:"key"` // cache key: app|design|config#params
	Violation check.Violation `json:"violation"`
}

// SetCheck arms the invariant audit for every timing simulation: each run
// executes with a check.Checker installed (engine monotonicity, DRAM
// backlog accounting, Traveller LRU permutations, scheduler verdicts,
// end-of-run conservation), then executes a second time unaudited and the
// two ResultHash fingerprints must match — the dual-run determinism
// relation, which also proves the checker perturbed nothing. Violations
// accumulate across the sweep (CheckViolations) and ride along in the
// metrics JSON. Check mode roughly doubles simulation time; functional
// characterizations (host model) have no engine and are not audited.
func (r *Runner) SetCheck(on bool) { r.checkRuns = on }

// CheckViolations returns every violation the sweep's audited runs have
// recorded so far (a copy; safe to keep).
func (r *Runner) CheckViolations() []CheckViolation {
	r.checkMu.Lock()
	defer r.checkMu.Unlock()
	return append([]CheckViolation(nil), r.checkViolations...)
}

// CheckViolationsFor returns the violations recorded for one cache key (a
// copy), so the serving layer can report a job's own audit verdict.
func (r *Runner) CheckViolationsFor(key string) []CheckViolation {
	r.checkMu.Lock()
	defer r.checkMu.Unlock()
	var out []CheckViolation
	for _, v := range r.checkViolations {
		if v.Key == key {
			out = append(out, v)
		}
	}
	return out
}

// CheckCounts returns how many runs were audited and how many invariant
// evaluations they performed.
func (r *Runner) CheckCounts() (runs, evals int64) {
	return atomic.LoadInt64(&r.checkedRuns), atomic.LoadInt64(&r.checkEvals)
}

// recordCheckViolations appends one run's violations under the check lock
// and reports them on the progress stream.
func (r *Runner) recordCheckViolations(k string, vs []check.Violation) {
	if len(vs) == 0 {
		return
	}
	r.checkMu.Lock()
	for _, v := range vs {
		r.checkViolations = append(r.checkViolations, CheckViolation{Key: k, Violation: v})
	}
	r.checkMu.Unlock()
	r.progressf("  CHECK FAILED %s: %d violation(s)\n", k, len(vs))
}

// checkedSimulate is simulate in check mode: the run executes audited, then
// a plain rerun must hash identically. The audited run carries the Runner's
// checkpoint shard while the rerun is the bare golden engine with no store,
// so the meta.determinism hash comparison doubles as the store-versus-golden
// parity assertion CI relies on. Like simulate it is safe on worker
// goroutines — both Systems are private to the call, and the shared
// violation list is mutex-protected. Both Systems register with h.
func (r *Runner) checkedSimulate(k string, spec runSpec, h *halter) *ndp.Result {
	newApp := func() ndp.App {
		a, err := apps.New(spec.app, spec.p)
		if err != nil {
			panic(err)
		}
		return a
	}
	sys := h.add(r.newSystem(spec))
	c := check.New()
	sys.SetChecker(c)
	start := time.Now()
	res := sys.Run(newApp())
	r.noteRunStat(k, time.Since(start).Seconds(), res.Events)
	plain := h.add(ndp.NewSystem(spec.cfg, spec.d)).Run(newApp())

	atomic.AddInt64(&r.checkedRuns, 1)
	atomic.AddInt64(&r.checkEvals, c.Checks())
	vs := c.Violations()
	if ha, hb := ndp.ResultHash(res), ndp.ResultHash(plain); ha != hb {
		vs = append(vs, check.Violation{Rule: "meta.determinism", Cycle: -1,
			Detail: fmt.Sprintf("audited run hash %016x != plain rerun hash %016x", ha, hb)})
	}
	r.recordCheckViolations(k, vs)
	return res
}
