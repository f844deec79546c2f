package bench

import (
	"io"
	"testing"

	"abndp/internal/check"
	"abndp/internal/config"
)

// A quick Figure 6 sweep (every workload under every Table 2 design) in
// check mode — the acceptance gate of the audit layer: every cell passes
// the runtime invariants and the dual-run determinism hash, on a
// multi-goroutine worker pool.
func TestCheckModeCleanDesignSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full quick fig6 sweep twice over")
	}
	r := NewRunner(io.Discard)
	r.SetQuick(true)
	r.SetCheck(true)
	r.SetWorkers(2)
	if err := r.Run("fig6"); err != nil {
		t.Fatal(err)
	}
	if fails := r.Failures(); len(fails) > 0 {
		t.Fatalf("runs failed under check mode: %v", fails)
	}
	if vs := r.CheckViolations(); len(vs) > 0 {
		t.Fatalf("audit violations:\n%v", vs)
	}
	runs, evals := r.CheckCounts()
	if runs == 0 || evals == 0 {
		t.Fatalf("check mode audited nothing: %d runs, %d evaluations", runs, evals)
	}
	m := r.Metrics()
	if m.CheckedRuns != runs || m.CheckEvals != evals || len(m.CheckViolations) != 0 {
		t.Fatalf("metrics disagree with the runner: %+v vs (%d, %d)", m, runs, evals)
	}
}

// Violations recorded by audited runs surface through CheckViolations and
// the metrics JSON, keyed by the run that produced them.
func TestCheckViolationsPropagateToMetrics(t *testing.T) {
	r := NewRunner(io.Discard)
	r.recordCheckViolations("pr|O|cfg#p", []check.Violation{
		{Rule: "engine.monotonic", Cycle: 7, Detail: "time ran backwards"},
	})
	vs := r.CheckViolations()
	if len(vs) != 1 || vs[0].Key != "pr|O|cfg#p" || vs[0].Violation.Rule != "engine.monotonic" {
		t.Fatalf("unexpected violations: %+v", vs)
	}
	m := r.Metrics()
	if len(m.CheckViolations) != 1 {
		t.Fatalf("metrics missed the violation: %+v", m)
	}
	// The accessor hands out copies: mutating one must not leak back.
	vs[0].Key = "mutated"
	if r.CheckViolations()[0].Key != "pr|O|cfg#p" {
		t.Fatal("CheckViolations returned a live reference")
	}
}

// checkedSimulate returns the audited run's result, which the dual-run
// relation has proven identical to a plain run — so cached sweep results
// are unchanged by check mode.
func TestCheckedSimulateMatchesPlain(t *testing.T) {
	r := NewRunner(io.Discard)
	r.SetQuick(true)
	r.SetCheck(true)
	spec := runSpec{app: "bfs", d: config.DesignO, cfg: r.base, p: r.params("bfs")}
	k := key(spec.app, spec.d, spec.cfg, spec.p)
	got := r.checkedSimulate(k, spec, &halter{})
	want := NewRunner(io.Discard).simulate(k, spec, &halter{})
	if got.Makespan != want.Makespan || got.Tasks != want.Tasks {
		t.Fatalf("checked run diverged: makespan %d/%d tasks %d/%d",
			got.Makespan, want.Makespan, got.Tasks, want.Tasks)
	}
	if vs := r.CheckViolations(); len(vs) > 0 {
		t.Fatalf("clean run flagged: %v", vs)
	}
}
