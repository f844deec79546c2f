package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abndp"
	"abndp/internal/config"
	"abndp/internal/ndp"
	"abndp/internal/obs"
	"abndp/internal/serve"
)

// ringOwner returns the backend that owns spec's route key on c's ring.
func ringOwner(t *testing.T, c *Coordinator, spec string) *Backend {
	t.Helper()
	var req serve.RunRequest
	if err := json.Unmarshal([]byte(spec), &req); err != nil {
		t.Fatalf("decode %s: %v", spec, err)
	}
	return c.backends[c.ring.order(serve.RouteKey(&req))[0]]
}

// specsOwnedBy returns n distinct pr specs, built from format and seeds
// counting up from 1, whose ring owner is b.
func specsOwnedBy(t *testing.T, c *Coordinator, b *Backend, format string, n int) []string {
	t.Helper()
	var out []string
	for seed := 1; len(out) < n; seed++ {
		if seed > 1000 {
			t.Fatalf("fewer than %d of 1000 seeds are owned by %s", n, b.URL)
		}
		if spec := fmt.Sprintf(format, seed); ringOwner(t, c, spec) == b {
			out = append(out, spec)
		}
	}
	return out
}

// TestFullRingOwnerSkipped pins the free-worker rule on two single-worker
// stubs. A second key owned by the backend that runs the first job goes to
// the ring successor and counts one load reroute. Once both backends are
// full, a third key goes to its ring owner and counts none. Every count
// returns to 0 when the jobs finish.
func TestFullRingOwnerSkipped(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	b1, b2 := newStub(t, "b1"), newStub(t, "b2")
	for _, s := range []*stubBackend{b1, b2} {
		s.submitFn = func(n int32, w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusAccepted)
			_ = json.NewEncoder(w).Encode(serve.RunStatus{ID: fmt.Sprintf("run-%s-%d", s.id, n), Status: serve.StateQueued, Backend: s.id})
		}
		s.getFn = func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-release:
			case <-r.Context().Done():
				return
			}
			_ = json.NewEncoder(w).Encode(serve.RunStatus{ID: r.PathValue("id"), Status: serve.StateDone, ResultHash: "00dd", Backend: s.id})
		}
	}
	cfg := fastCfg(b1.srv.URL, b2.srv.URL)
	cfg.ProbeInterval = time.Hour // the first probe round reports 1 worker each
	c, ts := newTestCoord(t, cfg)
	t.Cleanup(unblock) // before the stubs close: a held GET would wedge them

	owner, successor := c.Backends()[0], c.Backends()[1]
	specs := specsOwnedBy(t, c, owner, `{"app":"pr","design":"O","params":{"seed":%d}}`, 3)

	first, resp := proxyPost(t, ts, specs[0])
	if resp.StatusCode != http.StatusAccepted || first.Backend != owner.ID() {
		t.Fatalf("first job: status %d on %q, want 202 on its ring owner %s (%s)", resp.StatusCode, first.Backend, owner.ID(), first.Error)
	}
	held := make(chan *serve.RunStatus, 1)
	go func() {
		var out serve.RunStatus
		if resp, err := http.Get(ts.URL + "/v1/runs/" + first.ID + "?wait=5s"); err == nil {
			_ = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
		}
		held <- &out
	}()
	ownerStub := b1
	if owner.URL == b2.srv.URL {
		ownerStub = b2
	}
	waitFor(t, "the first job's poll to reach its owner", func() bool { return ownerStub.gets.Load() == 1 })

	second, resp := proxyPost(t, ts, specs[1])
	if resp.StatusCode != http.StatusAccepted || second.Backend != successor.ID() {
		t.Fatalf("second job with the same ring owner: status %d on %q, want 202 on the successor %s (%s)", resp.StatusCode, second.Backend, successor.ID(), second.Error)
	}
	if got := c.reroutes.Value(); got != 1 {
		t.Fatalf("fleet_load_reroutes_total = %d after skipping a full owner, want 1", got)
	}

	third, resp := proxyPost(t, ts, specs[2])
	if resp.StatusCode != http.StatusAccepted || third.Backend != owner.ID() {
		t.Fatalf("third job with every backend full: status %d on %q, want 202 on its ring owner %s (%s)", resp.StatusCode, third.Backend, owner.ID(), third.Error)
	}
	if got := c.reroutes.Value(); got != 1 {
		t.Fatalf("fleet_load_reroutes_total = %d after a fallback to the ring owner, want still 1", got)
	}
	if o, s := owner.inflight.Load(), successor.inflight.Load(); o != 2 || s != 1 {
		t.Fatalf("in-flight counts: owner %d, successor %d, want 2 and 1", o, s)
	}

	unblock()
	if st := <-held; st.Status != serve.StateDone {
		t.Fatalf("held poll: %+v, want done", st)
	}
	for _, st := range []*serve.RunStatus{second, third} {
		if fin, _ := proxyGet(t, ts, st.ID, "?wait=5s"); fin.Status != serve.StateDone || fin.Backend != st.Backend {
			t.Fatalf("job %s: %+v, want done on %s", st.ID, fin, st.Backend)
		}
	}
	for _, b := range c.Backends() {
		if n := b.inflight.Load(); n != 0 {
			t.Errorf("%s: %d jobs still counted in flight after every job finished", b.ID(), n)
		}
	}
}

// scriptedStub is a stub whose runs act by their spec's seed range:
//
//   - 1xx finish: a poll answers done;
//   - 2xx fail over: the first backend to take the job loses it (404),
//     and the second finishes it;
//   - 3xx poison: every backend loses it;
//   - 4xx hang up: a ?wait poll parks until the caller hangs up, and a
//     poll without ?wait answers done.
//
// takes counts the submissions of each seed across the fleet.
func scriptedStub(t *testing.T, id string, takes *sync.Map) *stubBackend {
	t.Helper()
	s := newStub(t, id)
	s.submitFn = func(n int32, w http.ResponseWriter, r *http.Request) {
		var req serve.RunRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Params == nil {
			http.Error(w, "bad body", http.StatusBadRequest)
			return
		}
		seed := req.Params.Seed
		v, _ := takes.LoadOrStore(seed, new(atomic.Int32))
		take := v.(*atomic.Int32).Add(1)
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(serve.RunStatus{
			ID: fmt.Sprintf("run-%s-%d-%d-%d", id, seed, take, n), Status: serve.StateQueued, Backend: id,
		})
	}
	s.getFn = func(w http.ResponseWriter, r *http.Request) {
		var seed, take int64
		if f := strings.Split(r.PathValue("id"), "-"); len(f) == 5 {
			seed, _ = strconv.ParseInt(f[2], 10, 64)
			take, _ = strconv.ParseInt(f[3], 10, 64)
		}
		lost := seed/100 == 3 || (seed/100 == 2 && take == 1)
		if lost {
			http.Error(w, `{"error":"no such run"}`, http.StatusNotFound)
			return
		}
		if seed/100 == 4 && r.URL.Query().Get("wait") != "" {
			<-r.Context().Done()
			return
		}
		time.Sleep(time.Millisecond) // let jobs overlap
		_ = json.NewEncoder(w).Encode(serve.RunStatus{
			ID: r.PathValue("id"), Status: serve.StateDone, ResultHash: fmt.Sprintf("%04x", seed), Backend: id,
		})
	}
	return s
}

// TestInFlightCountReleased drives every way a fleet job ends through
// concurrent submitters and pollers: finishing, failing over to a second
// owner, being poisoned, being joined by duplicate submissions, and a
// client that hangs up mid-?wait and polls again later. Once every job is
// terminal, no backend has a job counted in flight: each count was
// released exactly once.
func TestInFlightCountReleased(t *testing.T) {
	var takes sync.Map
	b1, b2 := scriptedStub(t, "b1", &takes), scriptedStub(t, "b2", &takes)
	c, ts := newTestCoord(t, fastCfg(b1.srv.URL, b2.srv.URL))

	hc := &http.Client{Timeout: 10 * time.Second}
	post := func(seed int) (*serve.RunStatus, error) {
		body := fmt.Sprintf(`{"app":"pr","design":"O","params":{"seed":%d}}`, seed)
		resp, err := hc.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var st serve.RunStatus
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("seed %d: submit status %d", seed, resp.StatusCode)
		}
		return &st, json.NewDecoder(resp.Body).Decode(&st)
	}
	poll := func(ctx context.Context, id, query string) (*serve.RunStatus, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/runs/"+id+query, nil)
		if err != nil {
			return nil, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var st serve.RunStatus
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("poll %s: status %d", id, resp.StatusCode)
		}
		return &st, json.NewDecoder(resp.Body).Decode(&st)
	}
	// run submits seed and polls the job until it is terminal, hanging up
	// one ?wait poll first when hangUp is set.
	run := func(seed int, hangUp bool) error {
		st, err := post(seed)
		if err != nil {
			return err
		}
		if hangUp {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			_, _ = poll(ctx, st.ID, "?wait=5s") // ends with the caller's hang-up
			cancel()
		}
		for !isTerminal(st.Status) {
			query := "?wait=5s"
			if hangUp {
				query = ""
			}
			if st, err = poll(context.Background(), st.ID, query); err != nil {
				return err
			}
		}
		return nil
	}

	// perKind jobs of each kind; the first dups jobs of the finish,
	// fail-over and poison kinds get a second submitter, which joins the
	// job and polls it alongside the first.
	const perKind, dups = 4, 2
	var wg sync.WaitGroup
	errs := make(chan error, 4*perKind+3*dups) // one send per goroutine
	for kind := 1; kind <= 4; kind++ {
		for i := 0; i < perKind; i++ {
			seed := kind*100 + i
			submitters := 1
			if kind != 4 && i < dups {
				submitters = 2
			}
			for range submitters {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs <- run(seed, kind == 4)
				}()
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if t.Failed() {
		return
	}

	for _, b := range c.Backends() {
		if n := b.inflight.Load(); n != 0 {
			t.Errorf("%s: %d jobs counted in flight once every job is terminal, want 0", b.ID(), n)
		}
	}
	if got := c.deduped.Value(); got != 3*dups {
		t.Errorf("fleet_jobs_deduped = %d, want %d", got, 3*dups)
	}
	if got := c.poisoned.Value(); got != perKind {
		t.Errorf("fleet_jobs_poisoned_total = %d, want %d", got, perKind)
	}
	// Two deaths per poisoned job and one per fail-over job: one dispatch
	// of a job runs at a time, so a job with two submitters has one owner
	// at a time as well.
	if got, want := c.failovers.Value(), int64(2*perKind+perKind); got != want {
		t.Errorf("fleet_failovers_total = %d, want %d", got, want)
	}
	// Each job reached the backends once per owner: the poisoned and
	// fail-over jobs twice, the rest once.
	takes.Range(func(k, v any) bool {
		want := int32(1)
		if kind := k.(int64) / 100; kind == 2 || kind == 3 {
			want = 2
		}
		if got := v.(*atomic.Int32).Load(); got != want {
			t.Errorf("seed %d was posted %d times, want %d", k, got, want)
		}
		return true
	})
}

// TestLoadRoutingRealBackends runs the free-worker rule on two real
// single-worker backends: two distinct keys with the same ring owner,
// submitted while the sim hook holds every run, finish on different
// backends, each backend executes one simulation, and both result hashes
// equal direct abndp.Run hashes.
func TestLoadRoutingRealBackends(t *testing.T) {
	base := config.Default()
	base.UnitBytes = 16 << 20
	gate := make(chan struct{})
	var release sync.Once
	hook := func(app, design string) { <-gate }
	b1 := startBackend(t, "b1", "127.0.0.1:0", &base, hook)
	b2 := startBackend(t, "b2", "127.0.0.1:0", &base, hook)
	t.Cleanup(func() { release.Do(func() { close(gate) }) })
	c, ts := newTestCoord(t, fastCfg(b1.url, b2.url))

	const format = `{"app":"pr","design":"O","params":{"scale":8,"degree":6,"seed":%d}}`
	owner := c.Backends()[0]
	specs := specsOwnedBy(t, c, owner, format, 2)
	var jobs []*serve.RunStatus
	for _, spec := range specs {
		st, resp := proxyPost(t, ts, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: status %d (%s)", spec, resp.StatusCode, st.Error)
		}
		jobs = append(jobs, st)
	}
	release.Do(func() { close(gate) })

	var backends []string
	for i, st := range jobs {
		fin, _ := proxyGet(t, ts, st.ID, "?wait=120s")
		if fin.Status != serve.StateDone {
			t.Fatalf("job %s: %+v, want done", st.ID, fin)
		}
		var seed int64
		if _, err := fmt.Sscanf(specs[i], format, &seed); err != nil {
			t.Fatal(err)
		}
		direct, err := abndp.Run("pr", abndp.DesignO, base, abndp.Params{Scale: 8, Degree: 6, Seed: seed})
		if err != nil {
			t.Fatalf("direct run: %v", err)
		}
		if want := fmt.Sprintf("%016x", ndp.ResultHash(direct)); fin.ResultHash != want {
			t.Fatalf("job %s (seed %d) hash %s != direct hash %s", st.ID, seed, fin.ResultHash, want)
		}
		backends = append(backends, fin.Backend)
	}
	if backends[0] != owner.ID() || backends[1] == backends[0] {
		t.Fatalf("jobs finished on %v, want the ring owner %s first and the other backend second", backends, owner.ID())
	}
	for _, b := range []*realBackend{b1, b2} {
		if runs := b.s.Runner().RunsExecuted(); runs != 1 {
			t.Errorf("backend %s executed %d simulations, want 1", b.url, runs)
		}
	}
}

// TestBackendHistFollowsID: the latency histogram is resolved once per
// backend ID. Observing through an unchanged backend allocates nothing,
// and a probe that reports a new ID moves later observations to that
// label.
func TestBackendHistFollowsID(t *testing.T) {
	var id atomic.Value
	id.Store("hist-a")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(serve.Ready{Status: "ready", BackendID: id.Load().(string), Workers: 1})
	}))
	t.Cleanup(srv.Close)
	reg := obs.NewRegistry()
	b, err := newBackend(srv.URL, 3, time.Second, reg)
	if err != nil {
		t.Fatal(err)
	}
	labeled := func(id string) *obs.SyncHist {
		return reg.Hist("fleet_backend_request_seconds",
			"Latency of requests the proxy forwarded to this backend.", 1e-6, "backend", id)
	}
	probe := func() {
		t.Helper()
		if err := b.Probe(context.Background(), srv.Client()); err != nil {
			t.Fatalf("probe: %v", err)
		}
	}

	probe()
	if b.hist() != labeled("hist-a") {
		t.Fatal("histogram not labeled with the probed ID hist-a")
	}
	if allocs := testing.AllocsPerRun(100, func() { b.hist().Observe(1) }); allocs != 0 {
		t.Fatalf("observing on an unchanged backend: %.1f allocations, want 0", allocs)
	}
	id.Store("hist-b")
	probe()
	if b.hist() != labeled("hist-b") {
		t.Fatal("histogram did not follow the ID change to hist-b")
	}
}
