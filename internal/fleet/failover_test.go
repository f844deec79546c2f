package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"abndp"
	"abndp/internal/config"
	"abndp/internal/ndp"
	"abndp/internal/serve"
)

// realBackend is a full abndpserve stack on its own listener, so the test
// can kill it abruptly (http.Server.Close drops live connections — unlike
// httptest.Server.Close, which waits for them).
type realBackend struct {
	s    *serve.Server
	http *http.Server
	url  string
	addr string
}

func startBackend(t *testing.T, id, addr string, base *config.Config, hook func(app, design string)) *realBackend {
	t.Helper()
	s := serve.New(serve.Config{ID: id, Workers: 1, Quick: true, Base: base})
	if hook != nil {
		s.Runner().SetSimHook(hook)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go func() { _ = hs.Serve(ln) }()
	b := &realBackend{s: s, http: hs, url: "http://" + ln.Addr().String(), addr: ln.Addr().String()}
	t.Cleanup(func() {
		_ = hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain %s: %v", id, err)
		}
	})
	return b
}

// TestFleetFailover is the end-to-end robustness test from the issue: two
// real backends behind the proxy, the job's owner is killed mid-run, the
// proxy re-dispatches to the survivor during the client's poll, and the
// final result_hash is byte-identical to a direct in-process run of the
// same spec. Afterwards a fresh backend on the dead one's address is
// re-admitted by the breaker's half-open recovery.
func TestFleetFailover(t *testing.T) {
	base := config.Default()
	base.UnitBytes = 16 << 20

	gate := make(chan struct{})
	var release sync.Once
	hook := func(app, design string) { <-gate }
	b1 := startBackend(t, "b1", "127.0.0.1:0", &base, hook)
	b2 := startBackend(t, "b2", "127.0.0.1:0", &base, hook)
	// Registered after the backends so it runs first on cleanup (LIFO):
	// a drain can never wedge on a still-closed gate.
	t.Cleanup(func() { release.Do(func() { close(gate) }) })

	cfg := fastCfg(b1.url, b2.url)
	c, ts := newTestCoord(t, cfg)

	spec := `{"app":"pr","design":"O","params":{"scale":8,"degree":6,"seed":7}}`
	st, resp := proxyPost(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", resp.StatusCode, st.Error)
	}
	if st.Backend == "" {
		t.Fatalf("submission not attributed to a backend: %+v", st)
	}

	// Let the owner actually start executing (the sim hook holds it there).
	waitFor(t, "job to start running on the owner", func() bool {
		cur, _ := proxyGet(t, ts, st.ID, "")
		return cur.Status == serve.StateRunning
	})

	// Kill the owner abruptly mid-run, then open the gate so the survivor
	// can finish the re-dispatched copy.
	owner := b1
	if st.Backend == "b2" {
		owner = b2
	}
	_ = owner.http.Close()
	release.Do(func() { close(gate) })

	final, code := proxyGet(t, ts, st.ID, "?wait=120s")
	if code.StatusCode != http.StatusOK || final.Status != serve.StateDone {
		t.Fatalf("after failover: status %d %+v, want a completed job", code.StatusCode, final)
	}
	if final.Failovers < 1 {
		t.Fatalf("completed job reports %d failovers, want >= 1: %+v", final.Failovers, final)
	}
	if final.Backend == st.Backend {
		t.Fatalf("job still attributed to the killed backend %q", final.Backend)
	}
	if got := c.failovers.Value(); got < 1 {
		t.Fatalf("fleet_failovers_total = %d, want >= 1", got)
	}

	// Integrity: the surviving backend's hash must match a standalone
	// in-process run of the same spec (the abndpsim code path).
	direct, err := abndp.Run("pr", abndp.DesignO, base, abndp.Params{Scale: 8, Degree: 6, Seed: 7})
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	if want := fmt.Sprintf("%016x", ndp.ResultHash(direct)); final.ResultHash != want {
		t.Fatalf("failover hash %s != direct hash %s", final.ResultHash, want)
	}

	// The dead backend's breaker must have opened...
	var deadB *Backend
	for _, b := range c.Backends() {
		if b.URL == owner.url {
			deadB = b
		}
	}
	waitFor(t, "dead backend's breaker to open", func() bool {
		return deadB.Health().State == BreakerOpen
	})

	// ... and a replacement on the same address is re-admitted through
	// half-open recovery without touching the coordinator.
	startBackend(t, "b1r", owner.addr, &base, nil)
	waitFor(t, "restarted backend to be re-admitted", func() bool {
		return deadB.Admitted(time.Now()) && deadB.Health().State == BreakerClosed
	})

	// The recovered fleet serves new work end to end.
	st2, resp2 := proxyPost(t, ts, `{"app":"pr","design":"O","params":{"scale":8,"degree":6,"seed":8}}`)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("post-recovery submit: status %d (%s)", resp2.StatusCode, st2.Error)
	}
	if fin2, _ := proxyGet(t, ts, st2.ID, "?wait=120s"); fin2.Status != serve.StateDone {
		t.Fatalf("post-recovery job did not finish: %+v", fin2)
	}
}

// TestDrainFinishesQueuedJob pins what a draining backend does with the
// work already queued on it: two real backends (one worker each), a job
// held running on the owner and a second job queued behind it. The owner
// starts draining mid-queue; once the proxy's probe has seen the drain,
// the queued job still completes on that owner — serve.Drain runs the
// queue out — with a result hash byte-identical to a direct in-process
// run.
func TestDrainFinishesQueuedJob(t *testing.T) {
	base := config.Default()
	base.UnitBytes = 16 << 20

	gate := make(chan struct{})
	var release sync.Once
	hook := func(app, design string) { <-gate }
	b1 := startBackend(t, "b1", "127.0.0.1:0", &base, hook)
	b2 := startBackend(t, "b2", "127.0.0.1:0", &base, hook)
	t.Cleanup(func() { release.Do(func() { close(gate) }) })

	c, ts := newTestCoord(t, fastCfg(b1.url, b2.url))

	// Occupy one worker, then keep submitting distinct specs until one
	// queues behind it on the same backend.
	first, resp := proxyPost(t, ts, `{"app":"pr","design":"O","params":{"scale":8,"degree":6,"seed":100}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d (%s)", resp.StatusCode, first.Error)
	}
	waitFor(t, "first job to start running", func() bool {
		cur, _ := proxyGet(t, ts, first.ID, "")
		return cur.Status == serve.StateRunning
	})
	ownerID := first.Backend
	owner := b1
	if ownerID == "b2" {
		owner = b2
	}

	var queued *serve.RunStatus
	var queuedSeed int
	for seed := 101; seed <= 140 && queued == nil; seed++ {
		spec := fmt.Sprintf(`{"app":"pr","design":"O","params":{"scale":8,"degree":6,"seed":%d}}`, seed)
		st, resp := proxyPost(t, ts, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit seed %d: status %d (%s)", seed, resp.StatusCode, st.Error)
		}
		if st.Backend == ownerID && st.Status == serve.StateQueued {
			queued, queuedSeed = st, seed
		}
	}
	if queued == nil {
		t.Fatalf("no submission queued on owner %s in 40 tries", ownerID)
	}

	// Drain the owner mid-queue in the background (it blocks on the held
	// running job until the gate opens), and wait for the proxy to see it.
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		drained <- owner.s.Drain(ctx)
	}()
	var ob *Backend
	for _, b := range c.Backends() {
		if b.URL == owner.url {
			ob = b
		}
	}
	waitFor(t, "proxy to see the owner draining", func() bool {
		return ob.Health().Draining
	})

	release.Do(func() { close(gate) })

	final, code := proxyGet(t, ts, queued.ID, "?wait=120s")
	if code.StatusCode != http.StatusOK || final.Status != serve.StateDone {
		t.Fatalf("queued job: status %d %+v, want done", code.StatusCode, final)
	}
	if final.Backend != ownerID || final.Failovers != 0 {
		t.Fatalf("queued job finished on %q with %d failovers, want the draining owner %q and 0: %+v",
			final.Backend, final.Failovers, ownerID, final)
	}

	// Byte-identical to the abndpsim code path for the same spec.
	direct, err := abndp.Run("pr", abndp.DesignO, base, abndp.Params{Scale: 8, Degree: 6, Seed: int64(queuedSeed)})
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	if want := fmt.Sprintf("%016x", ndp.ResultHash(direct)); final.ResultHash != want {
		t.Fatalf("drained job's hash %s != direct hash %s", final.ResultHash, want)
	}
	if err := <-drained; err != nil {
		t.Fatalf("owner drain: %v", err)
	}
}
