package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abndp/client"
	"abndp/internal/obs"
	"abndp/internal/serve"
)

// stubBackend is a scriptable abndpserve stand-in: a /readyz that follows
// an atomic readiness flag plus caller-supplied run handlers.
type stubBackend struct {
	id       string
	ready    atomic.Bool
	submits  atomic.Int32
	gets     atomic.Int32 // GET /v1/runs/{id}
	calls    atomic.Int32 // every request but a /readyz probe
	submitFn func(n int32, w http.ResponseWriter, r *http.Request)
	getFn    func(w http.ResponseWriter, r *http.Request)
	srv      *httptest.Server
}

func newStub(t *testing.T, id string) *stubBackend {
	t.Helper()
	s := &stubBackend{id: id}
	s.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		rd := serve.Ready{Status: "ready", BackendID: s.id, Workers: 1, QueueCap: 8}
		code := http.StatusOK
		if !s.ready.Load() {
			rd.Status = "starting"
			code = http.StatusServiceUnavailable
		}
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(rd)
	})
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		s.submitFn(s.submits.Add(1), w, r)
	})
	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		s.gets.Add(1)
		s.getFn(w, r)
	})
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			s.calls.Add(1)
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(s.srv.Close)
	return s
}

// fastCfg is a test-speed fleet config over the given backends.
func fastCfg(urls ...string) Config {
	return Config{
		Backends:      urls,
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  time.Second,
		FailThreshold: 2,
		HalfOpenAfter: 100 * time.Millisecond,
		MaxAttempts:   3,
		Retry:         client.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Jitter: -1},
	}
}

func newTestCoord(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		c.Close()
	})
	return c, ts
}

func proxyPost(t *testing.T, ts *httptest.Server, body string) (*serve.RunStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/runs: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var st serve.RunStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
	} else {
		st.Error = string(raw)
	}
	return &st, resp
}

func proxyGet(t *testing.T, ts *httptest.Server, id, query string) (*serve.RunStatus, *http.Response) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id + query)
	if err != nil {
		t.Fatalf("GET run: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var st serve.RunStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
	} else {
		st.Error = string(raw)
	}
	return &st, resp
}

// waitFor polls cond until it holds or the deadline fails the test.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestBreakerLifecycle pins the circuit-breaker state machine: closed
// until FailThreshold consecutive failures, open rejects, half-open after
// the cool-down, instant re-open on a half-open failure, closed on
// success.
func TestBreakerLifecycle(t *testing.T) {
	b, err := newBackend("http://127.0.0.1:1", 3, 50*time.Millisecond, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	b.ready = true // pretend a probe admitted it; the test drives Fail/OK directly
	b.mu.Unlock()

	now := time.Now()
	b.Fail("x")
	b.Fail("x")
	if !b.Admitted(now) || b.Health().State != BreakerClosed {
		t.Fatalf("breaker opened below threshold: %+v", b.Health())
	}
	b.Fail("x")
	if b.Admitted(now) || b.Health().State != BreakerOpen {
		t.Fatalf("breaker not open after 3 consecutive failures: %+v", b.Health())
	}
	// Before the cool-down: still open. After: half-open and admitted.
	if b.Admitted(now.Add(10 * time.Millisecond)) {
		t.Fatal("open breaker admitted before the cool-down")
	}
	if !b.Admitted(time.Now().Add(60*time.Millisecond)) || b.Health().State != BreakerHalfOpen {
		t.Fatalf("breaker not half-open after cool-down: %+v", b.Health())
	}
	// One half-open failure re-opens immediately, threshold ignored.
	b.Fail("x")
	if b.Health().State != BreakerOpen {
		t.Fatalf("half-open failure did not re-open: %+v", b.Health())
	}
	// Success closes from any state.
	b.OK()
	if !b.Admitted(now) || b.Health().State != BreakerClosed {
		t.Fatalf("success did not close the breaker: %+v", b.Health())
	}
}

// TestDispatchRetriesAfterRejection drives a submission through a 429
// rejection into acceptance: the proxy backs off (honoring Retry-After)
// and retries the same backend rather than surfacing the rejection.
func TestDispatchRetriesAfterRejection(t *testing.T) {
	stub := newStub(t, "s1")
	stub.submitFn = func(n int32, w http.ResponseWriter, r *http.Request) {
		if n == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":"job queue full (8 pending); retry later"}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(serve.RunStatus{ID: "run-000001", Status: serve.StateQueued, Backend: "s1"})
	}
	stub.getFn = func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(serve.RunStatus{ID: "run-000001", Status: serve.StateDone, ResultHash: "00aa", Backend: "s1"})
	}

	cfg := fastCfg(stub.srv.URL)
	// A 1s Retry-After would stall the test; verify the hint floors the
	// delay by timing the dispatch instead of waiting the full second.
	_, ts := newTestCoord(t, cfg)
	start := time.Now()
	st, resp := proxyPost(t, ts, `{"app":"pr","design":"O"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", resp.StatusCode, st.Error)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("dispatch returned in %v; the 1s Retry-After hint was not honored", elapsed)
	}
	if st.ID != "job-000001" || st.Backend != "s1" {
		t.Fatalf("status not rewritten into the fleet namespace: %+v", st)
	}
	if got := stub.submits.Load(); got != 2 {
		t.Fatalf("backend saw %d submits, want 2 (rejected then accepted)", got)
	}

	final, _ := proxyGet(t, ts, st.ID, "?wait=5s")
	if final.Status != serve.StateDone || final.ResultHash != "00aa" {
		t.Fatalf("final status %+v, want done/00aa", final)
	}
}

// TestSubmitRoutesAroundDeadBackend starts a fleet where one backend is
// already dead: submissions must land on the survivor without a
// client-visible error, and the dead backend's breaker must open from
// probe failures alone.
func TestSubmitRoutesAroundDeadBackend(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from the first probe on

	live := newStub(t, "alive")
	live.submitFn = func(n int32, w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(serve.RunStatus{ID: "run-000001", Status: serve.StateQueued, Backend: "alive"})
	}
	live.getFn = func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(serve.RunStatus{ID: "run-000001", Status: serve.StateDone, ResultHash: "00bb", Backend: "alive"})
	}

	c, ts := newTestCoord(t, fastCfg(deadURL, live.srv.URL))
	st, resp := proxyPost(t, ts, `{"app":"pr","design":"O"}`)
	if resp.StatusCode != http.StatusAccepted || st.Backend != "alive" {
		t.Fatalf("submit: status %d backend %q, want 202 on the survivor (%s)", resp.StatusCode, st.Backend, st.Error)
	}
	final, _ := proxyGet(t, ts, st.ID, "?wait=5s")
	if final.Status != serve.StateDone {
		t.Fatalf("final status %+v, want done", final)
	}

	waitFor(t, "dead backend's breaker to open", func() bool {
		for _, b := range c.Backends() {
			if b.URL == deadURL {
				return b.Health().State == BreakerOpen
			}
		}
		return false
	})
}

// TestFailoverHashMismatch is the integrity check's negative test. One
// poll long-polls the owner b1 while another finds b1 failing and fails
// the job over to b2, which finishes it with hash 2222. When b1 then
// reports done with hash 1111, the proxy must refuse that answer (502)
// and count the violation.
func TestFailoverHashMismatch(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	var b1Gets atomic.Int32
	b1 := newStub(t, "b1")
	b1.submitFn = func(n int32, w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(serve.RunStatus{ID: "run-b1", Status: serve.StateQueued, Backend: "b1"})
	}
	b1.getFn = func(w http.ResponseWriter, r *http.Request) {
		if b1Gets.Add(1) > 1 {
			http.Error(w, "worker crashed", http.StatusInternalServerError)
			return
		}
		close(held)
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		_ = json.NewEncoder(w).Encode(serve.RunStatus{ID: "run-b1", Status: serve.StateDone, ResultHash: "1111", Backend: "b1"})
	}
	b2 := newStub(t, "b2")
	b2.ready.Store(false) // held out of the fleet until the job has landed on b1
	b2.submitFn = func(n int32, w http.ResponseWriter, r *http.Request) {
		// A corrupted twin: completes "the same" job with a different hash.
		w.WriteHeader(http.StatusOK)
		_ = json.NewEncoder(w).Encode(serve.RunStatus{ID: "run-b2", Status: serve.StateDone, ResultHash: "2222", Backend: "b2"})
	}

	c, ts := newTestCoord(t, fastCfg(b1.srv.URL, b2.srv.URL))
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock) // before the servers close: a held GET would wedge them

	st, resp := proxyPost(t, ts, `{"app":"pr","design":"O"}`)
	if resp.StatusCode != http.StatusAccepted || st.Backend != "b1" {
		t.Fatalf("submit: status %d backend %q, want 202 on b1 (%s)", resp.StatusCode, st.Backend, st.Error)
	}
	b2.ready.Store(true)
	waitFor(t, "b2 to be admitted", func() bool {
		for _, b := range c.Backends() {
			if b.URL == b2.srv.URL && b.Admitted(time.Now()) {
				return true
			}
		}
		return false
	})

	type answer struct {
		code int
		body string
		err  error
	}
	late := make(chan answer, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/runs/" + st.ID + "?wait=5s")
		if err != nil {
			late <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		late <- answer{code: resp.StatusCode, body: string(raw)}
	}()
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("the long-poll never reached b1")
	}

	over, resp2 := proxyGet(t, ts, st.ID, "")
	if resp2.StatusCode != http.StatusOK || over.Status != serve.StateDone || over.ResultHash != "2222" ||
		over.Backend != "b2" || over.Failovers != 1 {
		t.Fatalf("poll that failed over: status %d %+v, want done/2222 on b2 after 1 failover", resp2.StatusCode, over)
	}

	unblock()
	a := <-late
	if a.err != nil {
		t.Fatalf("long-poll: %v", a.err)
	}
	if a.code != http.StatusBadGateway || !strings.Contains(a.body, "integrity") {
		t.Fatalf("b1's late done: status %d (%s), want 502 naming the integrity violation", a.code, a.body)
	}
	if got := c.mismatches.Value(); got != 1 {
		t.Fatalf("fleet_hash_mismatches_total = %d, want 1", got)
	}
}

// TestRejectionMovesToRingSuccessor: a submission its ring owner answers
// with 429 lands on the ring successor in the same dispatch round — no
// retry round, and no wait for the rejection's Retry-After.
func TestRejectionMovesToRingSuccessor(t *testing.T) {
	var submits atomic.Int32
	var rejectedBy atomic.Value
	b1, b2 := newStub(t, "b1"), newStub(t, "b2")
	for _, s := range []*stubBackend{b1, b2} {
		s.submitFn = func(n int32, w http.ResponseWriter, r *http.Request) {
			if submits.Add(1) == 1 {
				rejectedBy.Store(s.id)
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusTooManyRequests)
				_, _ = w.Write([]byte(`{"error":"job queue full (8 pending); retry later"}`))
				return
			}
			w.WriteHeader(http.StatusAccepted)
			_ = json.NewEncoder(w).Encode(serve.RunStatus{ID: "run-000001", Status: serve.StateQueued, Backend: s.id})
		}
	}

	c, ts := newTestCoord(t, fastCfg(b1.srv.URL, b2.srv.URL))
	start := time.Now()
	st, resp := proxyPost(t, ts, `{"app":"pr","design":"O"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", resp.StatusCode, st.Error)
	}
	if st.Backend == "" || st.Backend == rejectedBy.Load() {
		t.Fatalf("job landed on %q; want the successor of %v, which answered 429", st.Backend, rejectedBy.Load())
	}
	if b1.submits.Load() != 1 || b2.submits.Load() != 1 {
		t.Fatalf("submits b1=%d b2=%d, want one each", b1.submits.Load(), b2.submits.Load())
	}
	if got := c.retryRounds.Value(); got != 0 {
		t.Fatalf("fleet_dispatch_retry_rounds_total = %d, want 0", got)
	}
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Fatalf("dispatch took %v; the successor should answer without waiting out Retry-After", elapsed)
	}
}

// TestClientHangupIsNotOwnerDeath: clients that hang up mid-?wait on a
// healthy owner must not fail the job over. The owner keeps the job, sees
// no second submit, and a later poll reports zero failovers. A dispatch
// whose caller is gone fails no backend either.
func TestClientHangupIsNotOwnerDeath(t *testing.T) {
	owner := newStub(t, "owner")
	owner.submitFn = func(n int32, w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(serve.RunStatus{ID: "run-000001", Status: serve.StateQueued, Backend: "owner"})
	}
	parked := make(chan struct{})
	owner.getFn = func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("wait") != "" {
			// A long-poll that outlasts the client: park until the proxy
			// cancels the forwarded request.
			select {
			case parked <- struct{}{}:
			case <-r.Context().Done():
			}
			<-r.Context().Done()
			return
		}
		_ = json.NewEncoder(w).Encode(serve.RunStatus{ID: "run-000001", Status: serve.StateRunning, Backend: "owner"})
	}

	cfg := fastCfg(owner.srv.URL)
	cfg.ProbeInterval = time.Hour // only forwarded requests move the breaker
	c, _ := newTestCoord(t, cfg)
	var handled atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer handled.Add(1)
		c.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	st, resp := proxyPost(t, ts, `{"app":"pr","design":"O"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", resp.StatusCode, st.Error)
	}
	for i := 1; i <= 3; i++ {
		waitFor(t, "the previous request to finish", func() bool { return handled.Load() == int32(i) })
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/runs/"+st.ID+"?wait=30s", nil)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}()
		select {
		case <-parked:
		case <-done:
			cancel()
			t.Fatalf("hang-up %d: the poll returned before reaching the owner", i)
		case <-time.After(5 * time.Second):
			cancel()
			t.Fatalf("hang-up %d: the poll never reached the owner", i)
		}
		cancel()
		<-done
	}
	waitFor(t, "the last hung-up poll to finish", func() bool { return handled.Load() == 4 })

	if got := c.failovers.Value(); got != 0 {
		t.Errorf("fleet_failovers_total = %d after 3 hang-ups, want 0", got)
	}
	if got := owner.submits.Load(); got != 1 {
		t.Errorf("owner saw %d submits, want 1", got)
	}
	final, resp := proxyGet(t, ts, st.ID, "")
	if resp.StatusCode != http.StatusOK || final.Status != serve.StateRunning || final.Failovers != 0 {
		t.Fatalf("final poll: status %d %+v, want running with 0 failovers", resp.StatusCode, final)
	}

	// A poll that re-dispatches a job runs dispatch on the poll's context;
	// once that caller is gone, dispatch returns at once.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.dispatch(ctx, newPJob("job-gone", "k", nil), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("dispatch for a gone caller: %v, want context.Canceled", err)
	}
	if h := c.Backends()[0].Health(); h.State != BreakerClosed || h.ConsecutiveFailures != 0 {
		t.Fatalf("owner's breaker after hang-ups: %+v, want closed with no failures", h)
	}
}

// TestFailoverBudgetPoisonsJob: a job whose owners keep dying is tried on
// at most maxOwnerDeaths backends. After the second death it ends failed
// as poisoned, naming both backends, and later polls return the same
// status without dispatching it again.
func TestFailoverBudgetPoisonsJob(t *testing.T) {
	b1, b2 := newStub(t, "b1"), newStub(t, "b2")
	for _, s := range []*stubBackend{b1, b2} {
		s.submitFn = func(n int32, w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusAccepted)
			_ = json.NewEncoder(w).Encode(serve.RunStatus{ID: "run-000001", Status: serve.StateQueued, Backend: s.id})
		}
		s.getFn = func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "worker crashed", http.StatusInternalServerError)
		}
	}

	c, ts := newTestCoord(t, fastCfg(b1.srv.URL, b2.srv.URL))
	st, resp := proxyPost(t, ts, `{"app":"pr","design":"O"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", resp.StatusCode, st.Error)
	}
	// Bounded: without a budget the poll re-dispatches until it gives up.
	hc := &http.Client{Timeout: 10 * time.Second}
	poll := func() *serve.RunStatus {
		t.Helper()
		resp, err := hc.Get(ts.URL + "/v1/runs/" + st.ID + "?wait=5s")
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		defer resp.Body.Close()
		var out serve.RunStatus
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode poll: %v", err)
		}
		return &out
	}

	first := poll()
	if first.Status != serve.StateFailed || first.Failovers != 2 ||
		!strings.Contains(first.Error, "poisoned") ||
		!strings.Contains(first.Error, "b1") || !strings.Contains(first.Error, "b2") {
		t.Fatalf("poll after two owner deaths: %+v, want failed/poisoned naming b1 and b2 after 2 failovers", first)
	}
	if got := b1.submits.Load() + b2.submits.Load(); got != 2 {
		t.Fatalf("backends saw %d submits, want 2", got)
	}
	if got := c.poisoned.Value(); got != 1 {
		t.Fatalf("fleet_jobs_poisoned_total = %d, want 1", got)
	}

	again := poll()
	if again.Status != first.Status || again.Error != first.Error || again.Failovers != first.Failovers {
		t.Fatalf("later poll %+v differs from the poisoned status %+v", again, first)
	}
	if got := b1.submits.Load() + b2.submits.Load(); got != 2 {
		t.Fatalf("a later poll re-dispatched the poisoned job: %d submits, want 2", got)
	}
	if got := c.poisoned.Value(); got != 1 {
		t.Fatalf("fleet_jobs_poisoned_total = %d after a later poll, want 1", got)
	}
}

// TestFleetHealthz checks the proxy's own health surface: per-backend
// rows, ok/unavailable status, and 503 once every backend is gone.
func TestFleetHealthz(t *testing.T) {
	stub := newStub(t, "only")
	stub.submitFn = func(n int32, w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(serve.RunStatus{ID: "run-1", Status: serve.StateQueued})
	}
	_, ts := newTestCoord(t, fastCfg(stub.srv.URL))

	var h FleetHealth
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || len(h.Backends) != 1 || h.Backends[0].ID != "only" {
		t.Fatalf("healthz = %d %+v, want ok with the probed backend row", resp.StatusCode, h)
	}

	stub.ready.Store(false)
	waitFor(t, "fleet to report unavailable", func() bool {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode == http.StatusServiceUnavailable
	})
}

// scrapeCounters reads the unlabelled series of the proxy's /metrics.
func scrapeCounters(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if out[name], err = strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
	}
	return out
}

// TestTwoCoordinatorsReportTheirOwn builds two Coordinators over the same
// two backends. Each runs one job, and the first backend poll of the whole
// test answers that the run is lost, so the first Coordinator's job fails
// over once. Each proxy's /metrics and /healthz count only its own job and
// failovers, and neither lists a serve_* or bench_* family.
func TestTwoCoordinatorsReportTheirOwn(t *testing.T) {
	var lost atomic.Bool
	lost.Store(true)
	stub := func(id string) *stubBackend {
		s := symmetricStub(t, id, "feed")
		done := s.getFn
		s.getFn = func(w http.ResponseWriter, r *http.Request) {
			if lost.CompareAndSwap(true, false) {
				http.Error(w, "no such run", http.StatusNotFound)
				return
			}
			done(w, r)
		}
		return s
	}
	b1, b2 := stub("b1"), stub("b2")
	first, firstTS := newTestCoord(t, fastCfg(b1.srv.URL, b2.srv.URL))
	second, secondTS := newTestCoord(t, fastCfg(b1.srv.URL, b2.srv.URL))
	for i, ts := range []*httptest.Server{firstTS, secondTS} {
		st, resp := proxyPost(t, ts, `{"app":"pr","design":"O"}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("coordinator %d: submit status %d (%s)", i, resp.StatusCode, st.Error)
		}
		if fin, _ := proxyGet(t, ts, st.ID, "?wait=5s"); fin.Status != serve.StateDone || fin.Failovers != 1-i {
			t.Fatalf("coordinator %d: %+v, want done after %d failovers", i, fin, 1-i)
		}
	}
	for i, c := range []struct {
		coord *Coordinator
		ts    *httptest.Server
	}{{first, firstTS}, {second, secondTS}} {
		m := scrapeCounters(t, c.ts)
		if got, want := m["fleet_failovers_total"], float64(1-i); got != want || c.coord.failovers.Value() != int64(want) {
			t.Errorf("coordinator %d: fleet_failovers_total %v on /metrics, %d counted, want %v", i, got, c.coord.failovers.Value(), want)
		}
		if got := m["fleet_jobs_submitted"]; got != 1 {
			t.Errorf("coordinator %d: fleet_jobs_submitted = %v, want 1", i, got)
		}
		for name := range m {
			if !strings.HasPrefix(name, "fleet_") && !strings.HasPrefix(name, "go_") {
				t.Errorf("coordinator %d: /metrics lists %s", i, name)
			}
		}
		var h FleetHealth
		resp, err := http.Get(c.ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil || h.Failovers != int64(1-i) || h.Submitted != 1 {
			t.Errorf("coordinator %d: /healthz %+v (%v), want 1 submitted job and %d failovers", i, h, err, 1-i)
		}
	}
}

// TestRouteKeyAffinity checks fleet-wide dedup end to end: two identical
// submissions through the proxy produce one backend job; the second
// answers from the first's result with dedup set. Once the job has
// finished, the duplicate and a later poll cost no backend call.
func TestRouteKeyAffinity(t *testing.T) {
	var made atomic.Int32
	stub := newStub(t, "s1")
	stub.submitFn = func(n int32, w http.ResponseWriter, r *http.Request) {
		made.Add(1)
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(serve.RunStatus{ID: fmt.Sprintf("run-%06d", n), Status: serve.StateQueued})
	}
	stub.getFn = func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(serve.RunStatus{ID: r.PathValue("id"), Status: serve.StateDone, ResultHash: "00cc"})
	}
	_, ts := newTestCoord(t, fastCfg(stub.srv.URL))

	first, _ := proxyPost(t, ts, `{"app":"pr","design":"O","params":{"seed":42}}`)
	if st, _ := proxyGet(t, ts, first.ID, "?wait=5s"); st.Status != serve.StateDone {
		t.Fatalf("first job did not finish: %+v", st)
	}
	submits, gets := stub.submits.Load(), stub.gets.Load()
	// Same spec spelled differently (an empty params block defaults to
	// seed 42): joins, no new backend submit.
	second, resp := proxyPost(t, ts, `{"app":"pr","design":"O","params":{}}`)
	if resp.StatusCode != http.StatusOK || !second.Dedup || second.ID != first.ID {
		t.Fatalf("resubmit not deduped onto %s: %d %+v", first.ID, resp.StatusCode, second)
	}
	if got := made.Load(); got != 1 {
		t.Fatalf("backend saw %d distinct submissions, want 1", got)
	}
	if again, _ := proxyGet(t, ts, first.ID, ""); again.Status != serve.StateDone || again.ResultHash != "00cc" {
		t.Fatalf("later poll: %+v, want done/00cc", again)
	}
	if s, g := stub.submits.Load()-submits, stub.gets.Load()-gets; s != 0 || g != 0 {
		t.Fatalf("the duplicate and a later poll of a finished job cost %d submits and %d GETs, want 0 and 0", s, g)
	}
}
