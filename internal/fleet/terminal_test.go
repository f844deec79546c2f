package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"abndp/internal/config"
	"abndp/internal/serve"
)

// symmetricStub builds a stub whose submit immediately queues and whose
// poll completes with the given hash — from either backend, so the test
// doesn't care which ring owner a key lands on.
func symmetricStub(t *testing.T, id, hash string) *stubBackend {
	t.Helper()
	s := newStub(t, id)
	s.submitFn = func(n int32, w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(serve.RunStatus{
			ID: fmt.Sprintf("run-%s-%d", id, n), Status: serve.StateQueued, Backend: id,
		})
	}
	s.getFn = func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(serve.RunStatus{
			ID: r.PathValue("id"), Status: serve.StateDone, ResultHash: hash, Backend: id,
			Result: &serve.RunSummary{Makespan: 1000, Tasks: 10},
		})
	}
	return s
}

// TestOwnerDeathLeavesFinishedJob: once a job has finished, its owner's
// death changes nothing a client sees. Polls, with and without ?wait, and
// a resubmission are answered from the proxy's job table with the owner's
// hash, the owner as backend and no failover, and the survivor receives
// nothing but probes.
func TestOwnerDeathLeavesFinishedJob(t *testing.T) {
	b1 := symmetricStub(t, "b1", "feed")
	b2 := symmetricStub(t, "b2", "feed")
	c, ts := newTestCoord(t, fastCfg(b1.srv.URL, b2.srv.URL))

	const spec = `{"app":"pr","design":"O"}`
	st, resp := proxyPost(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", resp.StatusCode, st.Error)
	}
	first, _ := proxyGet(t, ts, st.ID, "?wait=5s")
	if first.Status != serve.StateDone || first.ResultHash != "feed" {
		t.Fatalf("first completion %+v, want done/feed", first)
	}
	owner, survivor := b1, b2
	if first.Backend == "b2" {
		owner, survivor = b2, b1
	}
	survivorCalls := survivor.calls.Load()
	owner.srv.Close()

	check := func(what string, code int, got *serve.RunStatus) {
		t.Helper()
		if code != http.StatusOK || got.ID != st.ID || got.Status != serve.StateDone || got.ResultHash != "feed" ||
			got.Backend != owner.id || got.Failovers != 0 {
			t.Fatalf("%s after the owner died: status %d %+v, want 200, %s done/feed on %s with 0 failovers",
				what, code, got, st.ID, owner.id)
		}
	}
	for _, q := range []string{"", "?wait=5s"} {
		got, resp := proxyGet(t, ts, st.ID, q)
		check("poll "+q, resp.StatusCode, got)
	}
	again, resp := proxyPost(t, ts, spec)
	check("resubmission", resp.StatusCode, again)
	if !again.Dedup {
		t.Fatalf("resubmission %+v, want dedup", again)
	}
	if got := survivor.calls.Load() - survivorCalls; got != 0 {
		t.Fatalf("survivor received %d requests besides probes, want 0", got)
	}
	if got := c.failovers.Value(); got != 0 {
		t.Fatalf("fleet_failovers_total = %d, want 0", got)
	}
}

// TestEvictedKeyAnsweredByRingOwner: a finished job evicted from the
// proxy's JobCap LRU is forgotten by the proxy only. Its key is dispatched
// again, and its ring owner answers from its own job table: done, with
// the first hash, and no simulation.
func TestEvictedKeyAnsweredByRingOwner(t *testing.T) {
	base := config.Default()
	base.UnitBytes = 16 << 20
	b1 := startBackend(t, "b1", "127.0.0.1:0", &base, nil)
	b2 := startBackend(t, "b2", "127.0.0.1:0", &base, nil)
	cfg := fastCfg(b1.url, b2.url)
	cfg.JobCap = 1 // the second completion evicts the first
	c, ts := newTestCoord(t, cfg)

	finished := func(spec string) *serve.RunStatus {
		t.Helper()
		st, resp := proxyPost(t, ts, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: status %d (%s)", spec, resp.StatusCode, st.Error)
		}
		fin, _ := proxyGet(t, ts, st.ID, "?wait=120s")
		if fin.Status != serve.StateDone || fin.ResultHash == "" {
			t.Fatalf("job %s did not finish: %+v", spec, fin)
		}
		return fin
	}
	const specA = `{"app":"pr","design":"O","params":{"scale":8,"degree":6,"seed":1}}`
	a := finished(specA)
	finished(`{"app":"pr","design":"O","params":{"scale":8,"degree":6,"seed":2}}`)
	c.mu.Lock()
	_, tracked := c.jobs[a.ID]
	c.mu.Unlock()
	if tracked {
		t.Fatalf("job %s not evicted with JobCap=1", a.ID)
	}

	re, resp := proxyPost(t, ts, specA)
	if resp.StatusCode != http.StatusAccepted || re.ID == a.ID || re.Status != serve.StateDone ||
		re.ResultHash != a.ResultHash || re.Backend != a.Backend {
		t.Fatalf("resubmission of evicted %s: status %d %+v, want 202, a new job done/%s on %s",
			a.ID, resp.StatusCode, re, a.ResultHash, a.Backend)
	}
	if runs := b1.s.Runner().RunsExecuted() + b2.s.Runner().RunsExecuted(); runs != 2 {
		t.Fatalf("backends executed %d simulations, want 2", runs)
	}
}

// TestTerminalJobMapsBounded is the job-map leak regression test: churn
// many distinct completed jobs through a small JobCap and assert every
// per-job map stays bounded. Run under -race this also exercises the
// markTerminal locking against concurrent submissions.
func TestTerminalJobMapsBounded(t *testing.T) {
	b1 := newStub(t, "b1")
	b1.submitFn = func(n int32, w http.ResponseWriter, r *http.Request) {
		// Complete synchronously: every submission is terminal on arrival.
		w.WriteHeader(http.StatusOK)
		_ = json.NewEncoder(w).Encode(serve.RunStatus{
			ID: fmt.Sprintf("run-%d", n), Status: serve.StateDone,
			ResultHash: fmt.Sprintf("%04x", n), Backend: "b1",
			Result: &serve.RunSummary{Makespan: int64(n)},
		})
	}

	const cap = 8
	cfg := fastCfg(b1.srv.URL)
	cfg.JobCap = cap
	c, ts := newTestCoord(t, cfg)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				body := fmt.Sprintf(`{"app":"pr","design":"O","params":{"seed":%d}}`, g*100+i)
				resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
			}
		}(g)
	}
	wg.Wait()

	c.mu.Lock()
	jobs, byKey, lru := len(c.jobs), len(c.byKey), c.termLRU.Len()
	c.mu.Unlock()
	for name, n := range map[string]int{"jobs": jobs, "byKey": byKey, "termLRU": lru} {
		if n > cap {
			t.Errorf("%s grew to %d, want <= %d", name, n, cap)
		}
	}
	if got := c.evictions.Value(); got < 40-cap {
		t.Errorf("fleet_job_evictions_total = %d, want >= %d", got, 40-cap)
	}
}

// TestCloseStopsGoroutines pins Fleet.Close's teardown contract: the
// probe loop and probe fan-out exit, and the HTTP transports drop their
// idle-connection goroutines.
func TestCloseStopsGoroutines(t *testing.T) {
	b1 := newStub(t, "b1")
	b2 := newStub(t, "b2")

	before := runtime.NumGoroutine()
	cfg := fastCfg(b1.srv.URL, b2.srv.URL)
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	// Let several probe rounds run so the prober is demonstrably alive.
	time.Sleep(5 * cfg.ProbeInterval)
	if runtime.NumGoroutine() <= before {
		t.Fatal("no goroutines started; the leak check would be vacuous")
	}
	c.Close()
	c.Close() // idempotent

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge idle transport goroutines to notice the close
		if n := runtime.NumGoroutine(); n <= before {
			return
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines %d > %d before New after Close\n%s",
				n, before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
