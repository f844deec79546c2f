package bench

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abndp/internal/config"
	"abndp/internal/ndp"
)

// TestMemoPanicDoesNotPoison: a computation that panics must not pin the
// zero value under its key. The pre-fix sync.Once memo marked the key done
// on panic, so every later do returned nil forever.
func TestMemoPanicDoesNotPoison(t *testing.T) {
	m := newMemo[int]()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic in fn did not propagate to the leading caller")
			}
		}()
		m.do("k", func() int { panic("boom") })
	}()
	if m.cached("k") {
		t.Fatal("panicked computation left a poisoned entry cached")
	}
	if got := m.do("k", func() int { return 7 }); got != 7 {
		t.Fatalf("do after panic = %d, want 7 (recomputed)", got)
	}
}

// TestMemoPanicWakesWaiters: waiters blocked on a key whose leader panics
// must not hang and must not observe the zero value — one of them retakes
// the key and computes. Pre-fix, sync.Once unblocked them straight into
// the poisoned zero value.
func TestMemoPanicWakesWaiters(t *testing.T) {
	m := newMemo[int]()
	entered := make(chan struct{})
	release := make(chan struct{})
	var first atomic.Bool
	fn := func() int {
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-release
			panic("leader dies")
		}
		return 42
	}

	go func() {
		defer func() { recover() }()
		m.do("k", fn)
	}()
	<-entered

	const waiters = 4
	got := make(chan int, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got <- m.do("k", fn)
		}()
	}
	// Give the waiters a moment to attach to the doomed entry, then kill
	// the leader.
	time.Sleep(10 * time.Millisecond)
	close(release)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("waiters hung after the leader panicked")
	}
	close(got)
	for v := range got {
		if v != 42 {
			t.Fatalf("waiter observed %d, want 42 (the retried computation)", v)
		}
	}
}

// TestRunOnePanicSurfacesFailure: concurrent RunOne callers on one key
// whose simulation panics must all return their recorded RunFailure as a
// *RunError — one simulation attempt each, none left blocked, no
// placeholder passed off as data.
func TestRunOnePanicSurfacesFailure(t *testing.T) {
	r, _ := quickRunner()
	var attempts atomic.Int64
	r.simHook = func(runSpec) {
		attempts.Add(1)
		panic("injected service panic")
	}
	spec := Spec{App: "pr", Design: config.DesignB, Config: r.base, Params: r.DefaultParams("pr")}

	const callers = 6
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.RunOne(context.Background(), spec, false)
			if err == nil {
				errs <- errors.New("panicked run returned no error")
				return
			}
			var re *RunError
			if !errors.As(err, &re) {
				errs <- err
				return
			}
			if !strings.Contains(re.Failure.Err, "injected service panic") {
				errs <- errors.New("failure lost the panic message: " + re.Failure.Err)
				return
			}
			if res == nil || res.Unrecoverable == "" {
				errs <- errors.New("failed run did not resolve to the marked placeholder")
				return
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := attempts.Load(); n != callers {
		t.Fatalf("%d simulation attempts, want %d (one per call)", n, callers)
	}
	if fails := r.Failures(); len(fails) != callers {
		t.Fatalf("%d failures recorded, want %d", len(fails), callers)
	}
}

// TestRunOneRunsEveryCall: RunOne does not memoize. Two calls on one spec
// simulate twice, to equal hashes, and EngineTotals counts both runs.
func TestRunOneRunsEveryCall(t *testing.T) {
	r, _ := quickRunner()
	spec := Spec{App: "pr", Design: config.DesignO, Config: r.base, Params: r.DefaultParams("pr")}
	a, err := r.RunOne(context.Background(), spec, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunOne(context.Background(), spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("the second call returned the first call's result")
	}
	if ha, hb := ndp.ResultHash(a), ndp.ResultHash(b); ha != hb {
		t.Fatalf("hashes differ across runs of one spec: %016x vs %016x", ha, hb)
	}
	if n := r.RunsExecuted(); n != 2 {
		t.Fatalf("%d simulations executed, want 2", n)
	}
	if events, secs := r.EngineTotals(); events != a.Events+b.Events || secs <= 0 {
		t.Fatalf("EngineTotals = (%d events, %g s), want %d events and some time", events, secs, a.Events+b.Events)
	}
}

// TestValidateWorkers covers the harness flag edge case: a negative -j
// must fail fast instead of silently misbehaving (the pre-fix CLIs
// clamped it).
func TestValidateWorkers(t *testing.T) {
	cases := []struct {
		jobs    int
		wantErr bool
	}{
		{jobs: 0},
		{jobs: 1},
		{jobs: 8},
		{jobs: -3, wantErr: true},
		{jobs: -1, wantErr: true},
	}
	for _, c := range cases {
		err := ValidateWorkers(c.jobs)
		if c.wantErr && err == nil {
			t.Errorf("ValidateWorkers(%d) accepted a negative worker count", c.jobs)
		}
		if !c.wantErr && err != nil {
			t.Errorf("ValidateWorkers(%d): %v", c.jobs, err)
		}
	}
}
