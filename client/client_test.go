package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"abndp/internal/config"
	"abndp/internal/serve"
)

// TestClientRoundTrip drives the client against an in-process service:
// submit-and-wait a run, dedup a resubmission, read health, and map the
// error statuses onto the typed errors.
func TestClientRoundTrip(t *testing.T) {
	base := config.Default()
	base.UnitBytes = 16 << 20
	s := serve.New(serve.Config{Workers: 2, Quick: true, Base: &base})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})

	c := New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	req := RunRequest{App: "pr", Design: "O"}
	st, err := c.SubmitWait(ctx, req)
	if err != nil {
		t.Fatalf("SubmitWait: %v", err)
	}
	if st.Status != serve.StateDone || st.ResultHash == "" {
		t.Fatalf("run finished %q hash %q (err %q)", st.Status, st.ResultHash, st.Error)
	}

	// Resubmitting the identical spec joins the completed job.
	again, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !again.Dedup || again.ID != st.ID || again.ResultHash != st.ResultHash {
		t.Fatalf("resubmit not deduped onto %s: %+v", st.ID, again)
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	if h.Status != "ok" || h.Runs != 1 {
		t.Fatalf("health %+v, want ok with 1 executed run", h)
	}

	// Error mapping: unknown experiment is a plain APIError 404 ...
	if _, err := c.Experiment(ctx, "nope"); err == nil {
		t.Fatal("unknown experiment did not error")
	} else {
		var ae *APIError
		if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown experiment error %v, want APIError 404", err)
		}
	}
	// ... and a known one renders.
	out, err := c.Experiment(ctx, "tab1")
	if err != nil {
		t.Fatalf("tab1: %v", err)
	}
	if !strings.Contains(out, "Table 1") {
		t.Fatalf("tab1 output missing header:\n%s", out)
	}

	// A bad submission surfaces the server's message.
	if _, err := c.Submit(ctx, RunRequest{App: "nope", Design: "O"}); err == nil {
		t.Fatal("bad submit did not error")
	} else if !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("bad submit error %v lacks the server message", err)
	}
}

// TestBackoffDelay pins the policy arithmetic: exponential growth from
// Base by Factor, capped at Max, floored by the server's Retry-After
// hint, with jitter drawing from [d·(1-Jitter), d].
func TestBackoffDelay(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: 400 * time.Millisecond, Factor: 2, Jitter: -1}
	for attempt, want := range []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond, 400 * time.Millisecond,
	} {
		if got := b.Delay(attempt, 0); got != want {
			t.Errorf("Delay(%d) = %v, want %v", attempt, got, want)
		}
	}
	// The server's hint floors the delay, even past the cap.
	if got := b.Delay(0, 3*time.Second); got != 3*time.Second {
		t.Errorf("hinted Delay = %v, want 3s", got)
	}
	// Jitter bounds: with Rand pinned to the extremes the delay spans
	// exactly [d/2, d] at Jitter 0.5.
	lo := Backoff{Base: 100 * time.Millisecond, Jitter: 0.5, Rand: func() float64 { return 0 }}
	if got := lo.Delay(0, 0); got != 50*time.Millisecond {
		t.Errorf("low-jitter Delay = %v, want 50ms", got)
	}
	hi := Backoff{Base: 100 * time.Millisecond, Jitter: 0.5, Rand: func() float64 { return 0.999999 }}
	if got := hi.Delay(0, 0); got <= 50*time.Millisecond || got > 100*time.Millisecond {
		t.Errorf("high-jitter Delay = %v, want in (50ms, 100ms]", got)
	}
	// Defaults: zero value yields a sane first delay.
	if got := (Backoff{Rand: func() float64 { return 0.5 }}).Delay(0, 0); got < 100*time.Millisecond || got > 200*time.Millisecond {
		t.Errorf("default Delay = %v, want in [100ms, 200ms]", got)
	}
}

// TestSubmitWaitBackoffCancel is the regression test for cancellation
// during backoff: a server that always answers 429 with a long
// Retry-After must not hold a canceled SubmitWait hostage — the call
// returns the context error as soon as the context ends, not after the
// hinted sleep.
func TestSubmitWaitBackoffCancel(t *testing.T) {
	var calls int32
	h := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"error":"job queue full (1 pending); retry later"}`))
	}))
	defer h.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := New(h.URL).SubmitWait(ctx, RunRequest{App: "pr", Design: "O"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context deadline", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("canceled SubmitWait slept %v against a 30s Retry-After", elapsed)
	}
	if atomic.LoadInt32(&calls) == 0 {
		t.Fatal("no submission attempted")
	}
}

// TestSubmitWaitRetriesThenSucceeds drives SubmitWait through two 429
// rejections into an accepted, completed job, and checks the attempt
// count and that MaxAttempts gives up with the rejection error.
func TestSubmitWaitRetriesThenSucceeds(t *testing.T) {
	var submits int32
	h := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			if atomic.AddInt32(&submits, 1) <= 2 {
				w.Header().Set("Retry-After", "0")
				w.WriteHeader(http.StatusTooManyRequests)
				_, _ = w.Write([]byte(`{"error":"job queue full (1 pending); retry later"}`))
				return
			}
			w.WriteHeader(http.StatusAccepted)
			_, _ = w.Write([]byte(`{"id":"run-000001","status":"queued"}`))
		default:
			_, _ = w.Write([]byte(`{"id":"run-000001","status":"done","result_hash":"abc"}`))
		}
	}))
	defer h.Close()

	c := New(h.URL)
	c.Retry = Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Jitter: -1}
	st, err := c.SubmitWait(context.Background(), RunRequest{App: "pr", Design: "O"})
	if err != nil {
		t.Fatalf("SubmitWait: %v", err)
	}
	if st.Status != "done" || atomic.LoadInt32(&submits) != 3 {
		t.Fatalf("status %q after %d submits, want done after 3", st.Status, submits)
	}

	// A bounded policy gives up with the server's rejection.
	atomic.StoreInt32(&submits, -1000) // never succeeds within the bound
	c.Retry.MaxAttempts = 2
	if _, err := c.SubmitWait(context.Background(), RunRequest{App: "pr", Design: "O"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("bounded SubmitWait err = %v, want ErrQueueFull", err)
	}
}

// TestErrQueueFull checks the sentinel mapping and Retry-After parsing
// without needing to wedge a real queue.
func TestErrQueueFull(t *testing.T) {
	h := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"error":"job queue full (1 pending); retry later"}`))
	}))
	defer h.Close()
	_, err := New(h.URL).Submit(context.Background(), RunRequest{App: "pr", Design: "O"})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err %v does not match ErrQueueFull", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.RetryAfter != 3*time.Second {
		t.Fatalf("Retry-After not parsed: %+v", ae)
	}
}

// TestSubmitWaitDeadlineClamp is the regression test for the backoff
// deadline clamp: when the server's Retry-After floor exceeds the
// caller's remaining deadline budget, SubmitWait must fail fast with
// DeadlineExceeded instead of sleeping the whole budget out doing
// provably useless waiting. Before the clamp, this test burned the full
// 2s deadline; with it, the call returns in milliseconds.
func TestSubmitWaitDeadlineClamp(t *testing.T) {
	var calls int32
	h := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"error":"job queue full (1 pending); retry later"}`))
	}))
	defer h.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	_, err := New(h.URL).SubmitWait(ctx, RunRequest{App: "pr", Design: "O"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// Generous bound for slow CI, but far under the 2s the un-clamped
	// sleep would have consumed.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("SubmitWait took %v against a 30s Retry-After with 2s of budget; the clamp should fail fast", elapsed)
	}
	if atomic.LoadInt32(&calls) != 1 {
		t.Fatalf("submissions = %d, want exactly 1 before the clamp fires", atomic.LoadInt32(&calls))
	}
}

// TestBackoffSleepClamp pins the clamp at the Backoff level: a delay
// that fits the deadline sleeps normally; one that cannot finish in
// time returns immediately.
func TestBackoffSleepClamp(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Jitter: -1}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := b.Sleep(ctx, 0, 0); err != nil {
		t.Fatalf("in-budget sleep errored: %v", err)
	}
	start := time.Now()
	if err := b.Sleep(ctx, 0, time.Hour); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("over-budget sleep err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("over-budget sleep blocked %v, want immediate return", elapsed)
	}
	// No deadline at all: the hint floor still applies and Sleep obeys a
	// plain cancel.
	cctx, ccancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); ccancel() }()
	if err := b.Sleep(cctx, 0, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled no-deadline sleep err = %v, want Canceled", err)
	}
}

// TestSubmitWaitTerminalSubmitSkipsWait: a submission answered with a
// terminal status (a repeat of a finished job) costs one POST and no
// poll; a queued one still long-polls until the job is done.
func TestSubmitWaitTerminalSubmitSkipsWait(t *testing.T) {
	for _, tc := range []struct {
		submitted string // the POST's status
		wantGets  int32
	}{
		{serve.StateDone, 0},
		{serve.StateFailed, 0},
		{serve.StateQueued, 1},
	} {
		t.Run(tc.submitted, func(t *testing.T) {
			var posts, gets atomic.Int32
			var waited atomic.Bool
			h := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost {
					posts.Add(1)
					_, _ = w.Write([]byte(`{"id":"run-000001","status":"` + tc.submitted + `"}`))
					return
				}
				gets.Add(1)
				waited.Store(r.URL.Query().Get("wait") != "")
				_, _ = w.Write([]byte(`{"id":"run-000001","status":"done","result_hash":"abc"}`))
			}))
			defer h.Close()

			st, err := New(h.URL).SubmitWait(context.Background(), RunRequest{App: "pr", Design: "O"})
			if err != nil {
				t.Fatalf("SubmitWait: %v", err)
			}
			want := tc.submitted
			if tc.wantGets > 0 {
				want = serve.StateDone
			}
			if st.Status != want {
				t.Fatalf("status %q, want %q", st.Status, want)
			}
			if posts.Load() != 1 || gets.Load() != tc.wantGets {
				t.Fatalf("%d POSTs and %d GETs, want 1 and %d", posts.Load(), gets.Load(), tc.wantGets)
			}
			if tc.wantGets > 0 && !waited.Load() {
				t.Fatal("the poll of a queued job did not long-poll (no ?wait)")
			}
		})
	}
}
