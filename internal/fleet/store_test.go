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

	"abndp/internal/serve"
)

func doneStatus(runID, hash string) *serve.RunStatus {
	return &serve.RunStatus{
		ID: runID, Status: serve.StateDone, ResultHash: hash,
		Result: &serve.RunSummary{Makespan: 1000, Tasks: 10},
	}
}

// TestResultStoreLRU pins the store's semantics: done-only admission,
// LRU eviction at cap, update-in-place, Get-refreshes-recency, deep
// copies, and the cap<=0 disable switch.
func TestResultStoreLRU(t *testing.T) {
	s := newResultStore(2)

	s.Put("k0", &serve.RunStatus{Status: serve.StateFailed}, "b1")
	s.Put("k0", &serve.RunStatus{Status: serve.StateDone}, "b1") // no hash
	if s.Len() != 0 {
		t.Fatalf("non-done / hashless statuses were admitted: len %d", s.Len())
	}

	s.Put("k1", doneStatus("run-1", "aaaa"), "b1")
	s.Put("k2", doneStatus("run-2", "bbbb"), "b2")
	if _, _, _, ok := s.Get("k1"); !ok { // refresh k1: k2 becomes LRU
		t.Fatal("k1 missing after Put")
	}
	s.Put("k3", doneStatus("run-3", "cccc"), "b1")
	if _, _, _, ok := s.Get("k2"); ok {
		t.Fatal("k2 survived eviction; LRU should have chosen it")
	}
	if _, _, _, ok := s.Get("k3"); !ok {
		t.Fatal("k3 missing after eviction round")
	}
	if s.Len() != 2 || s.Evictions() != 1 {
		t.Fatalf("len %d evictions %d, want 2 and 1", s.Len(), s.Evictions())
	}

	// Update-in-place must not grow the store or evict.
	s.Put("k1", doneStatus("run-1b", "dddd"), "b3")
	st, hash, backend, ok := s.Get("k1")
	if !ok || hash != "dddd" || backend != "b3" || s.Len() != 2 {
		t.Fatalf("update-in-place: ok=%v hash=%s backend=%s len=%d", ok, hash, backend, s.Len())
	}

	// The returned status is the caller's: mutating it must not reach the
	// stored entry.
	st.Result.Makespan = -1
	st.ResultHash = "poisoned"
	if again, _, _, _ := s.Get("k1"); again.Result.Makespan != 1000 || again.ResultHash != "dddd" {
		t.Fatalf("stored entry aliased a returned copy: %+v", again)
	}

	// Disabled store: everything no-ops.
	off := newResultStore(-1)
	off.Put("k1", doneStatus("run-1", "aaaa"), "b1")
	if _, _, _, ok := off.Get("k1"); ok || off.Len() != 0 {
		t.Fatal("disabled store admitted an entry")
	}
}

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

// TestFailoverServesFromStore is the tentpole's zero-recompute contract:
// the owner completes a job and dies; the next poll is answered from the
// shared result store and the memo is adopted onto the survivor — which
// never receives a compute submission.
func TestFailoverServesFromStore(t *testing.T) {
	b1 := symmetricStub(t, "b1", "feed")
	b2 := symmetricStub(t, "b2", "feed")

	hitsBefore := fleetStoreHits.Value()
	c, ts := newTestCoord(t, fastCfg(b1.srv.URL, b2.srv.URL))

	st, resp := proxyPost(t, ts, `{"app":"pr","design":"O"}`)
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
	survivorSubmits := survivor.submits.Load()
	owner.srv.Close()

	second, resp2 := proxyGet(t, ts, st.ID, "")
	if resp2.StatusCode != http.StatusOK || second.Status != serve.StateDone {
		t.Fatalf("post-kill poll: status %d %+v", resp2.StatusCode, second)
	}
	if !second.FromStore || second.ResultHash != "feed" {
		t.Fatalf("post-kill poll not served from store: %+v", second)
	}
	if second.Backend != survivor.id {
		t.Fatalf("store hit attributed to %q, want the adopting survivor %q", second.Backend, survivor.id)
	}
	if got := survivor.submits.Load(); got != survivorSubmits {
		t.Fatalf("survivor received %d compute submissions during store failover, want 0", got-survivorSubmits)
	}
	if survivor.adopts.Load() < 1 {
		t.Fatal("survivor never received the adopt replication")
	}
	if got := fleetStoreHits.Value() - hitsBefore; got < 1 {
		t.Fatalf("fleet_store_hits_total delta = %d, want >= 1", got)
	}
	if c.storeHitsN.Load() < 1 || c.adoptionsN.Load() < 1 {
		t.Fatalf("coordinator counters: hits %d adoptions %d, want >= 1 each",
			c.storeHitsN.Load(), c.adoptionsN.Load())
	}

	// The adopted copy is now a live holder: one more poll must work even
	// with the store bypassed (the survivor owns the run).
	third, resp3 := proxyGet(t, ts, st.ID, "")
	if resp3.StatusCode != http.StatusOK || third.Status != serve.StateDone {
		t.Fatalf("post-adopt poll: status %d %+v", resp3.StatusCode, third)
	}
}

// TestColdSubmitServesFromStore covers the second store path: a terminal
// fleet job ages out of the proxy's maps (JobCap), and a fresh submission
// of the same spec is answered from the store — HTTP 200, no compute.
func TestColdSubmitServesFromStore(t *testing.T) {
	b1 := symmetricStub(t, "b1", "cafe")

	cfg := fastCfg(b1.srv.URL)
	cfg.JobCap = 1 // second completion evicts the first terminal job
	c, ts := newTestCoord(t, cfg)

	specA := `{"app":"pr","design":"O","params":{"seed":1}}`
	stA, _ := proxyPost(t, ts, specA)
	if fin, _ := proxyGet(t, ts, stA.ID, "?wait=5s"); fin.Status != serve.StateDone {
		t.Fatalf("job A did not finish: %+v", fin)
	}
	stB, _ := proxyPost(t, ts, `{"app":"pr","design":"O","params":{"seed":2}}`)
	if fin, _ := proxyGet(t, ts, stB.ID, "?wait=5s"); fin.Status != serve.StateDone {
		t.Fatalf("job B did not finish: %+v", fin)
	}

	// Job A's terminal record is gone from the maps, but its result is in
	// the store.
	c.mu.Lock()
	_, stillTracked := c.jobs[stA.ID]
	c.mu.Unlock()
	if stillTracked {
		t.Fatalf("job %s not evicted with JobCap=1", stA.ID)
	}

	submitsBefore := b1.submits.Load()
	re, resp := proxyPost(t, ts, specA)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold resubmit: status %d (%s), want 200 from store", resp.StatusCode, re.Error)
	}
	if !re.FromStore || re.ResultHash != "cafe" || re.Status != serve.StateDone {
		t.Fatalf("cold resubmit not served from store: %+v", re)
	}
	if got := b1.submits.Load(); got != submitsBefore {
		t.Fatalf("cold resubmit cost %d compute submissions, want 0", got-submitsBefore)
	}
	if b1.adopts.Load() < 1 {
		t.Fatal("cold resubmit was not re-adopted onto the backend")
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

	evictionsBefore := fleetJobEvictions.Value()
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
	if got := fleetJobEvictions.Value() - evictionsBefore; got < 40-cap {
		t.Errorf("fleet_job_evictions_total delta = %d, want >= %d", got, 40-cap)
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
