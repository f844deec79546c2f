package bench

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"abndp/internal/apps"
	"abndp/internal/config"
	"abndp/internal/ndp"
)

// normalizeRows collapses tabwriter padding so row comparisons survive
// column-width changes (a placeholder value can widen or narrow a column
// for every other row in the table).
func normalizeRows(out string) []string {
	var rows []string
	for _, line := range strings.Split(out, "\n") {
		rows = append(rows, strings.Join(strings.Fields(line), " "))
	}
	return rows
}

// runFig8 renders fig8 on a 4-wide pool with the given hook installed.
func runFig8(t *testing.T, hook func(runSpec)) (*Runner, string) {
	t.Helper()
	r, buf := quickRunner()
	r.SetWorkers(4)
	r.simHook = hook
	if err := r.Run("fig8"); err != nil {
		t.Fatal(err)
	}
	return r, buf.String()
}

// TestPanicIsolation injects a panic into exactly one simulation of a
// parallel sweep and requires: the sweep completes, the failure is recorded
// with its stack, every other cached result is identical to a clean
// sweep's, and only the poisoned workload's table row changes.
func TestPanicIsolation(t *testing.T) {
	clean, cleanOut := runFig8(t, nil)
	if n := clean.Failures(); len(n) != 0 {
		t.Fatalf("clean sweep recorded failures: %+v", n)
	}

	poisoned, poisonedOut := runFig8(t, func(spec runSpec) {
		if spec.app == "knn" && spec.d == config.DesignSl {
			panic("injected test panic")
		}
	})

	fails := poisoned.Failures()
	if len(fails) != 1 {
		t.Fatalf("recorded %d failures, want 1: %+v", len(fails), fails)
	}
	f := fails[0]
	if f.App != "knn" || f.Design != "Sl" || !strings.Contains(f.Err, "injected test panic") {
		t.Errorf("failure misrecorded: %+v", f)
	}
	if !strings.Contains(f.Stack, "guard_test.go") {
		t.Errorf("failure stack does not point at the panic site:\n%s", f.Stack)
	}
	if f.Hung {
		t.Error("panic recorded as hung")
	}
	if m := poisoned.Metrics(); len(m.Failures) != 1 {
		t.Errorf("metrics JSON carries %d failures, want 1", len(m.Failures))
	}

	// Every cached result except the poisoned one matches the clean sweep.
	cleanDig := cacheDigests(clean)
	poisonedDig := cacheDigests(poisoned)
	if len(cleanDig) != len(poisonedDig) {
		t.Fatalf("poisoned sweep cached %d runs, clean %d", len(poisonedDig), len(cleanDig))
	}
	diffs := 0
	for k, want := range cleanDig {
		got, ok := poisonedDig[k]
		if !ok {
			t.Fatalf("poisoned sweep missing run %q", k)
		}
		if got != want {
			diffs++
			if !strings.Contains(k, "knn") {
				t.Errorf("non-poisoned run %q diverged: %q vs %q", k, got, want)
			}
		}
	}
	if diffs != 1 {
		t.Errorf("%d cached results differ from the clean sweep, want exactly the poisoned one", diffs)
	}

	// Every table row except knn's renders identically (modulo padding).
	cleanRows, poisonedRows := normalizeRows(cleanOut), normalizeRows(poisonedOut)
	if len(cleanRows) != len(poisonedRows) {
		t.Fatalf("row counts differ: %d vs %d\nclean:\n%s\npoisoned:\n%s",
			len(cleanRows), len(poisonedRows), cleanOut, poisonedOut)
	}
	for i := range cleanRows {
		if cleanRows[i] != poisonedRows[i] && !strings.HasPrefix(cleanRows[i], "knn") {
			t.Errorf("row %d changed outside the poisoned workload:\n clean: %q\n poisoned: %q",
				i, cleanRows[i], poisonedRows[i])
		}
	}
}

// cacheDigests snapshots every memoized timing result.
func cacheDigests(r *Runner) map[string]string {
	d := make(map[string]string)
	r.cache.mu.Lock()
	defer r.cache.mu.Unlock()
	for k, e := range r.cache.m {
		d[k] = resultDigest(e.val)
	}
	return d
}

// TestHungRunDeadline wedges one simulation past the per-run deadline and
// requires the sweep to finish anyway with the hang recorded.
func TestHungRunDeadline(t *testing.T) {
	r, buf := quickRunner()
	r.SetWorkers(4)
	// The deadline must be generous enough that genuine quick-mode runs
	// never trip it, even slowed ~20x by the race detector; only the
	// wedged run sleeps far past it.
	r.SetRunDeadline(5 * time.Second)
	r.simHook = func(spec runSpec) {
		if spec.app == "knn" && spec.d == config.DesignSl {
			time.Sleep(30 * time.Second)
		}
	}
	done := make(chan error, 1)
	go func() { done <- r.Run("fig8") }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("sweep did not finish: the hung run blocked it")
	}
	fails := r.Failures()
	if len(fails) != 1 || !fails[0].Hung {
		t.Fatalf("failures = %+v, want one hung entry", fails)
	}
	if !strings.Contains(fails[0].Err, "deadline") {
		t.Errorf("hang misdescribed: %q", fails[0].Err)
	}
	if buf.Len() == 0 {
		t.Error("sweep rendered no output")
	}
}

// TestDeadlineDisabled: a non-positive deadline must wait runs out rather
// than failing them.
func TestDeadlineDisabled(t *testing.T) {
	r, _ := quickRunner()
	r.SetRunDeadline(0)
	r.simHook = func(runSpec) { time.Sleep(20 * time.Millisecond) }
	res := r.run("pr", config.DesignB, nil)
	if len(r.Failures()) != 0 {
		t.Fatalf("failures: %+v", r.Failures())
	}
	if res == failedResult {
		t.Fatal("run resolved to the failure placeholder")
	}
}

// labelled reports whether a goroutine carrying the pprof label
// halttest=tag is alive.
func labelled(tag string) bool {
	var b strings.Builder
	if err := pprof.Lookup("goroutine").WriteTo(&b, 1); err != nil {
		panic(err)
	}
	return strings.Contains(b.String(), `"halttest":"`+tag+`"`)
}

// A run past its deadline is halted, not only abandoned: pr at scale 14 on
// design O, under a 20 ms deadline, records a hung failure, and the
// goroutine simulating it exits soon after, in plain and in check mode,
// instead of keeping a core until the run ends. "Soon" is a quarter of
// the time one whole run takes here, and at most a second, so a run that
// only gets abandoned fails the test on any host. A System registered
// after the halt, as a checked simulation's plain rerun can be, is halted
// as it registers. The whole run goes first and fills the input cache,
// because Setup is not interruptible.
func TestDeadlineHaltsAbandonedRun(t *testing.T) {
	h := &halter{}
	early := h.add(ndp.NewSystem(config.Default(), config.DesignO))
	h.halt()
	late := h.add(ndp.NewSystem(config.Default(), config.DesignO))
	if !early.Engine.Halted() || !late.Engine.Halted() {
		t.Fatalf("halted: registered before %v, after %v; want both", early.Engine.Halted(), late.Engine.Halted())
	}

	r := NewRunner(io.Discard)
	spec := runSpec{app: "pr", d: config.DesignO, cfg: r.base, p: apps.Params{Scale: 14, Seed: 42}}
	k := key(spec.app, spec.d, spec.cfg, spec.p)
	start := time.Now()
	r.simulate(spec, &halter{})
	bound := min(time.Second, time.Since(start)/4)
	for _, checked := range []bool{false, true} {
		r := NewRunner(io.Discard)
		r.SetCheck(checked)
		r.SetRunDeadline(20 * time.Millisecond)
		tag := fmt.Sprint(checked)
		r.simHook = func(runSpec) { // runs on the guarded goroutine
			pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("halttest", tag)))
		}
		if out, _ := r.safeSimulate(k, spec); out.res != failedResult {
			t.Fatalf("check %v: the run finished inside 20 ms; the test needs a longer one", checked)
		}
		if fails := r.Failures(); len(fails) != 1 || !fails[0].Hung {
			t.Fatalf("check %v: failures = %+v, want one hung entry", checked, fails)
		}
		deadline := time.Now().Add(bound)
		for labelled(tag) {
			if time.Now().After(deadline) {
				t.Fatalf("check %v: the abandoned run still simulates %v after its deadline", checked, bound)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}
