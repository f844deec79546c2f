package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abndp/internal/serve"
)

// TestOneDispatchAtATime holds the proxy to one dispatch of a job at a
// time, on two stub backends that share the job's script:
//
//   - seed 1: the first POST is held. A duplicate submission that joins
//     the job meanwhile waits for it instead of posting again, and both
//     submissions answer with the one run.
//   - seed 2: the first owner loses the run once two polls have asked for
//     it, so both find it dead at once. One fails the job over, and the
//     re-dispatch's POST is held; the other waits for that dispatch
//     instead of posting again, then both read the new owner's result.
//
// The job of each seed reaches the backends with one POST per owner.
func TestOneDispatchAtATime(t *testing.T) {
	var takes [3]atomic.Int32
	// held[seed] closes to let seed's held POST answer.
	held := [3]chan struct{}{nil, make(chan struct{}), make(chan struct{})}
	var release [3]sync.Once
	unblock := func(seed int) { release[seed].Do(func() { close(held[seed]) }) }
	var lostGets atomic.Int32
	bothAsked := make(chan struct{})
	script := func(s *stubBackend) {
		s.submitFn = func(_ int32, w http.ResponseWriter, r *http.Request) {
			var req serve.RunRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Params == nil || req.Params.Seed < 1 || req.Params.Seed > 2 {
				http.Error(w, "bad body", http.StatusBadRequest)
				return
			}
			seed := req.Params.Seed
			take := takes[seed].Add(1)
			if (seed == 1 && take == 1) || (seed == 2 && take == 2) {
				select {
				case <-held[seed]:
				case <-r.Context().Done():
					return
				}
			}
			w.WriteHeader(http.StatusAccepted)
			_ = json.NewEncoder(w).Encode(serve.RunStatus{
				ID: fmt.Sprintf("run-%s-%d-%d", s.id, seed, take), Status: serve.StateQueued, Backend: s.id,
			})
		}
		s.getFn = func(w http.ResponseWriter, r *http.Request) {
			var seed, take int
			if _, err := fmt.Sscanf(r.PathValue("id"), "run-"+s.id+"-%d-%d", &seed, &take); err != nil {
				http.Error(w, `{"error":"no such run"}`, http.StatusNotFound)
				return
			}
			if seed == 2 && take == 1 {
				if lostGets.Add(1) == 2 {
					close(bothAsked)
				}
				select {
				case <-bothAsked:
				case <-time.After(5 * time.Second):
				}
				http.Error(w, `{"error":"no such run"}`, http.StatusNotFound)
				return
			}
			_ = json.NewEncoder(w).Encode(serve.RunStatus{
				ID: r.PathValue("id"), Status: serve.StateDone, ResultHash: fmt.Sprintf("%04x", seed), Backend: s.id,
			})
		}
	}
	b1, b2 := newStub(t, "b1"), newStub(t, "b2")
	script(b1)
	script(b2)
	c, ts := newTestCoord(t, fastCfg(b1.srv.URL, b2.srv.URL))
	t.Cleanup(func() { unblock(1); unblock(2) }) // before the stubs close: a held POST would wedge them

	hc := &http.Client{Timeout: 10 * time.Second}
	type answer struct {
		st  *serve.RunStatus
		err error
	}
	call := func(method, path, body string) answer {
		req, err := http.NewRequestWithContext(context.Background(), method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			return answer{nil, err}
		}
		resp, err := hc.Do(req)
		if err != nil {
			return answer{nil, err}
		}
		defer resp.Body.Close()
		var st serve.RunStatus
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			return answer{nil, fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)}
		}
		return answer{&st, json.NewDecoder(resp.Body).Decode(&st)}
	}
	spec := func(seed int) string { return fmt.Sprintf(`{"app":"pr","design":"O","params":{"seed":%d}}`, seed) }
	// settle leaves room for a second dispatch to reach a backend.
	settle := func() { time.Sleep(100 * time.Millisecond) }

	// A duplicate submission joins a job whose first POST is held.
	subs := make(chan answer, 2)
	go func() { subs <- call(http.MethodPost, "/v1/runs", spec(1)) }()
	waitFor(t, "the first POST to reach a backend", func() bool { return takes[1].Load() >= 1 })
	go func() { subs <- call(http.MethodPost, "/v1/runs", spec(1)) }()
	waitFor(t, "the duplicate to join the job", func() bool { return c.deduped.Value() == 1 })
	settle()
	if n := takes[1].Load(); n != 1 {
		t.Fatalf("a duplicate submission during the first dispatch posted the job again: %d POSTs", n)
	}
	unblock(1)
	a, b := <-subs, <-subs
	for _, s := range []answer{a, b} {
		if s.err != nil {
			t.Fatal(s.err)
		}
	}
	if a.st.ID != b.st.ID || a.st.Backend != b.st.Backend || a.st.Backend == "" {
		t.Fatalf("the submissions answered %+v and %+v, want one job on one backend", a.st, b.st)
	}

	// Two polls race the failover of a job whose owner lost its run.
	sub := call(http.MethodPost, "/v1/runs", spec(2))
	if sub.err != nil {
		t.Fatal(sub.err)
	}
	polls := make(chan answer, 2)
	for range 2 {
		go func() { polls <- call(http.MethodGet, "/v1/runs/"+sub.st.ID+"?wait=5s", "") }()
	}
	waitFor(t, "the failover's POST to reach a backend", func() bool { return takes[2].Load() >= 2 })
	settle()
	if n := takes[2].Load(); n != 2 {
		t.Fatalf("the polls racing a failover posted the job %d times, want 2 (the first owner's and the failover's)", n)
	}
	unblock(2)
	a, b = <-polls, <-polls
	for _, s := range []answer{a, b} {
		if s.err != nil {
			t.Fatal(s.err)
		}
		if s.st.Status != serve.StateDone || s.st.Failovers != 1 || s.st.Backend == sub.st.Backend {
			t.Fatalf("a poll answered %+v, want done after one failover away from %s", s.st, sub.st.Backend)
		}
	}
	if got := c.failovers.Value(); got != 1 {
		t.Fatalf("fleet_failovers_total = %d, want 1", got)
	}
}

// blockFirstDispatched is a log handler that holds the proxy's first
// "dispatched" record, which dispatch logs after setOwner, until release
// closes: the job then has an owner while its first dispatch has not
// returned. inGap closes when the record arrives.
type blockFirstDispatched struct {
	seen           atomic.Bool
	inGap, release chan struct{}
}

func (h *blockFirstDispatched) Enabled(context.Context, slog.Level) bool { return true }
func (h *blockFirstDispatched) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *blockFirstDispatched) WithGroup(string) slog.Handler            { return h }
func (h *blockFirstDispatched) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "dispatched" && h.seen.CompareAndSwap(false, true) {
		close(h.inGap)
		<-h.release
	}
	return nil
}

// TestDispatchEndsWithOwner holds the proxy between setting a job's first
// owner and the return of the dispatch that set it. Both stub backends
// accept every POST and have lost every run. A duplicate submission that
// joined during the first POST must wake when the owner is set, and a poll
// in the gap that fails the job over starts the next dispatch; when the
// first dispatch returns, its submission still answers, with no second
// POST to the first owner and no dispatch left waiting.
func TestDispatchEndsWithOwner(t *testing.T) {
	var posts atomic.Int32
	firstPost := make(chan struct{})
	script := func(s *stubBackend) {
		s.submitFn = func(_ int32, w http.ResponseWriter, r *http.Request) {
			n := posts.Add(1)
			if n == 1 {
				select {
				case <-firstPost:
				case <-r.Context().Done():
					return
				}
			}
			w.WriteHeader(http.StatusAccepted)
			_ = json.NewEncoder(w).Encode(serve.RunStatus{
				ID: fmt.Sprintf("run-%s-%d", s.id, n), Status: serve.StateQueued, Backend: s.id,
			})
		}
		s.getFn = func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, `{"error":"no such run"}`, http.StatusNotFound)
		}
	}
	b1, b2 := newStub(t, "b1"), newStub(t, "b2")
	script(b1)
	script(b2)
	h := &blockFirstDispatched{inGap: make(chan struct{}), release: make(chan struct{})}
	cfg := fastCfg(b1.srv.URL, b2.srv.URL)
	cfg.Logger = slog.New(h)
	c, ts := newTestCoord(t, cfg)
	var releaseOnce, postOnce sync.Once
	releaseGap := func() { releaseOnce.Do(func() { close(h.release) }) }
	releasePost := func() { postOnce.Do(func() { close(firstPost) }) }
	t.Cleanup(func() { releasePost(); releaseGap() }) // before the servers close

	hc := &http.Client{Timeout: 10 * time.Second}
	do := func(method, path, body string) error {
		req, err := http.NewRequestWithContext(context.Background(), method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
		}
		return nil
	}
	const spec = `{"app":"pr","design":"O","params":{"seed":1}}`
	subs := make(chan error, 2)
	go func() { subs <- do(http.MethodPost, "/v1/runs", spec) }()
	waitFor(t, "the first POST to reach a backend", func() bool { return posts.Load() >= 1 })
	go func() { subs <- do(http.MethodPost, "/v1/runs", spec) }()
	waitFor(t, "the duplicate to join the job", func() bool { return c.deduped.Value() == 1 })
	time.Sleep(50 * time.Millisecond) // the duplicate waits for the first dispatch
	releasePost()
	select {
	case <-h.inGap:
	case <-time.After(5 * time.Second):
		t.Fatal("the first dispatch never set an owner")
	}
	// The first owner has lost the run: this poll fails the job over,
	// unless the woken duplicate got there first.
	if err := do(http.MethodGet, "/v1/runs/job-000001", ""); err != nil {
		t.Fatalf("poll in the gap: %v", err)
	}
	releaseGap()
	for range 2 {
		if err := <-subs; err != nil {
			t.Fatalf("a submission: %v", err)
		}
	}
	if n := posts.Load(); n != 2 {
		t.Fatalf("%d POSTs, want 2 (the first owner's and the failover's)", n)
	}
}

// TestUnplacedJobEndsItsJoiners fails the dispatch of a job that a
// duplicate submission joined: the one backend rejects every POST of the
// creating submission's rounds. The duplicate must get the creator's 503
// instead of dispatching the job itself, which would leave it running
// under an ID that the proxy's tables no longer hold, with its in-flight
// count never released. The next submission starts a fresh job.
func TestUnplacedJobEndsItsJoiners(t *testing.T) {
	var posts atomic.Int32
	firstPost := make(chan struct{})
	b1 := newStub(t, "b1")
	b1.submitFn = func(_ int32, w http.ResponseWriter, r *http.Request) {
		n := posts.Add(1)
		if n == 1 {
			select {
			case <-firstPost:
			case <-r.Context().Done():
				return
			}
		}
		if n <= 3 { // the creator's three rounds
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"busy"}`, http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(serve.RunStatus{ID: fmt.Sprintf("run-%d", n), Status: serve.StateQueued, Backend: "b1"})
	}
	b1.getFn = func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(serve.RunStatus{ID: r.PathValue("id"), Status: serve.StateQueued, Backend: "b1"})
	}
	c, ts := newTestCoord(t, fastCfg(b1.srv.URL))
	var once sync.Once
	release := func() { once.Do(func() { close(firstPost) }) }
	t.Cleanup(release) // before the servers close

	const spec = `{"app":"pr","design":"O","params":{"seed":1}}`
	type answer struct {
		code       int
		retryAfter string
		id         string
	}
	post := func() answer {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Error(err)
			return answer{}
		}
		defer resp.Body.Close()
		var st serve.RunStatus
		_ = json.NewDecoder(resp.Body).Decode(&st)
		return answer{resp.StatusCode, resp.Header.Get("Retry-After"), st.ID}
	}
	subs := make(chan answer, 2)
	go func() { subs <- post() }()
	waitFor(t, "the first POST to reach the backend", func() bool { return posts.Load() >= 1 })
	go func() { subs <- post() }()
	waitFor(t, "the duplicate to join the job", func() bool { return c.deduped.Value() == 1 })
	time.Sleep(50 * time.Millisecond) // the duplicate waits for the first dispatch
	release()
	for range 2 {
		if a := <-subs; a.code != http.StatusServiceUnavailable || a.retryAfter == "" {
			t.Fatalf("a submission of the unplaced job answered %+v, want 503 with a Retry-After", a)
		}
	}
	if n := posts.Load(); n != 3 {
		t.Fatalf("%d POSTs, want the creator's 3", n)
	}
	for _, b := range c.backends {
		if n := b.inflight.Load(); n != 0 {
			t.Fatalf("backend %s counts %d jobs in flight, want 0", b.ID(), n)
		}
	}
	if a := post(); a.code != http.StatusAccepted || a.id != "job-000002" {
		t.Fatalf("a resubmission answered %+v, want 202 for a fresh job-000002", a)
	}
}
