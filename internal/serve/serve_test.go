package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"abndp"
	"abndp/internal/apps"
	"abndp/internal/config"
	"abndp/internal/ndp"
)

// newTestServer builds a Server over a shrunken machine (small per-unit
// memory keeps cache construction fast) plus an httptest front end, and
// registers a bounded drain as cleanup so a wedged pool fails the test
// instead of hanging the run.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Base == nil {
		base := config.Default()
		base.UnitBytes = 16 << 20
		cfg.Base = &base
	}
	cfg.Quick = true
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

// post submits a run request body and decodes the response.
func post(t *testing.T, ts *httptest.Server, body string) (*RunStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/runs: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var st RunStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
	} else {
		st.Error = string(raw)
	}
	return &st, resp
}

// get fetches one run's status; query is e.g. "?wait=30s".
func get(t *testing.T, ts *httptest.Server, id, query string) (*RunStatus, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id + query)
	if err != nil {
		t.Fatalf("GET run: %v", err)
	}
	defer resp.Body.Close()
	var st RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode run status: %v", err)
	}
	return &st, resp.StatusCode
}

// await long-polls until the job is terminal.
func await(t *testing.T, ts *httptest.Server, id string) *RunStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st, code := get(t, ts, id, "?wait=5s")
		if code != http.StatusOK {
			t.Fatalf("GET %s: status %d", id, code)
		}
		if st.Status == StateDone || st.Status == StateFailed {
			return st
		}
	}
	t.Fatalf("run %s did not finish", id)
	return nil
}

// TestSubmitHashParity checks the e2e determinism contract: a job's
// ResultHash must be byte-identical to the hash of a standalone in-process
// run (the abndpsim code path) of the same spec.
func TestSubmitHashParity(t *testing.T) {
	base := config.Default()
	base.UnitBytes = 16 << 20
	_, ts := newTestServer(t, Config{Workers: 2, Base: &base})

	body := `{"app":"pr","design":"O","params":{"scale":8,"degree":6,"seed":42}}`
	st, resp := post(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", resp.StatusCode, st.Error)
	}
	st = await(t, ts, st.ID)
	if st.Status != StateDone {
		t.Fatalf("run finished %q (err %q), want done", st.Status, st.Error)
	}
	if st.Result == nil || st.Result.Makespan <= 0 {
		t.Fatalf("done run carries no summary: %+v", st)
	}

	direct, err := abndp.Run("pr", abndp.DesignO, base, abndp.Params{Scale: 8, Degree: 6, Seed: 42})
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	want := fmt.Sprintf("%016x", ndp.ResultHash(direct))
	if st.ResultHash != want {
		t.Fatalf("service hash %s != direct hash %s", st.ResultHash, want)
	}
}

// TestConcurrentSubmitDedup checks the tentpole dedup property: N clients
// submitting the identical spec while it is in flight all join one job —
// same ID, one simulation executed, one shared hash.
func TestConcurrentSubmitDedup(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	gate := make(chan struct{})
	var release sync.Once
	t.Cleanup(func() { release.Do(func() { close(gate) }) })
	s.Runner().SetSimHook(func(app, design string) { <-gate })

	body := `{"app":"bfs","design":"O"}`
	first, resp := post(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	// Wait until the job is actually running (the hook holds it open).
	for {
		st, _ := get(t, ts, first.ID, "")
		if st.Status == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}

	const clients = 8
	var wg sync.WaitGroup
	ids := make([]string, clients)
	deduped := make([]bool, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, resp := post(t, ts, body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("dup submit %d: status %d", i, resp.StatusCode)
				return
			}
			ids[i], deduped[i] = st.ID, st.Dedup
		}(i)
	}
	wg.Wait()
	for i := range ids {
		if ids[i] != first.ID {
			t.Fatalf("client %d got job %q, want shared job %q", i, ids[i], first.ID)
		}
		if !deduped[i] {
			t.Fatalf("client %d response not marked dedup", i)
		}
	}

	release.Do(func() { close(gate) })
	st := await(t, ts, first.ID)
	if st.Status != StateDone || st.ResultHash == "" {
		t.Fatalf("shared job finished %q hash %q", st.Status, st.ResultHash)
	}
	if n := s.Runner().RunsExecuted(); n != 1 {
		t.Fatalf("executed %d simulations for %d identical submissions, want 1", n, clients+1)
	}
}

// TestQueueFullBackpressure checks the bounded queue: with one worker held
// open and the one-slot queue occupied, the next distinct submission is
// rejected with 429 and a Retry-After hint rather than buffered.
func TestQueueFullBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 1})
	gate := make(chan struct{})
	var release sync.Once
	t.Cleanup(func() { release.Do(func() { close(gate) }) })
	s.Runner().SetSimHook(func(app, design string) { <-gate })

	// Distinct seeds give distinct cache keys, so nothing dedups.
	spec := func(seed int) string {
		return fmt.Sprintf(`{"app":"pr","design":"O","params":{"seed":%d}}`, seed)
	}
	first, resp := post(t, ts, spec(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: status %d", resp.StatusCode)
	}
	// Wait for the worker to take job 1 off the queue (it then blocks in
	// the hook), so job 2 deterministically lands in the queue slot.
	for {
		st, _ := get(t, ts, first.ID, "")
		if st.Status == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, resp := post(t, ts, spec(2)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: status %d, want 202", resp.StatusCode)
	}
	st, resp := post(t, ts, spec(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit 3: status %d (%s), want 429", resp.StatusCode, st.Error)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After header")
	}
	// A rejected submission must leave no job record behind.
	if _, code := get(t, ts, "run-000003", ""); code != http.StatusNotFound {
		t.Fatalf("rejected job visible: status %d", code)
	}
	release.Do(func() { close(gate) })
}

// TestRunDeadlineExceeded checks deadline reporting: a job past the
// per-run deadline fails with hung=true and a deadline message, and its
// placeholder result is never presented as done.
func TestRunDeadlineExceeded(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, RunDeadline: 50 * time.Millisecond})
	s.Runner().SetSimHook(func(app, design string) { time.Sleep(2 * time.Second) })

	st, resp := post(t, ts, `{"app":"pr","design":"O"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	st = await(t, ts, st.ID)
	if st.Status != StateFailed {
		t.Fatalf("run finished %q, want failed", st.Status)
	}
	if !st.Hung {
		t.Fatalf("deadline failure not marked hung: %+v", st)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Fatalf("error %q does not mention the deadline", st.Error)
	}
	if st.ResultHash != "" || st.Result != nil {
		t.Fatalf("failed run leaked a result: hash %q result %+v", st.ResultHash, st.Result)
	}
}

// TestGracefulDrain checks shutdown: a draining server refuses new
// submissions with 503 and reports draining on /healthz, while the
// in-flight job still runs to completion and stays queryable.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	gate := make(chan struct{})
	var release sync.Once
	t.Cleanup(func() { release.Do(func() { close(gate) }) })
	s.Runner().SetSimHook(func(app, design string) { <-gate })

	first, resp := post(t, ts, `{"app":"pr","design":"O"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	for {
		st, _ := get(t, ts, first.ID, "")
		if st.Status == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Drain flips the flag before waiting, but poll to absorb scheduling.
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("healthz: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if st, resp := post(t, ts, `{"app":"bfs","design":"O"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d (%s), want 503", resp.StatusCode, st.Error)
	}

	release.Do(func() { close(gate) })
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := await(t, ts, first.ID)
	if st.Status != StateDone {
		t.Fatalf("in-flight job finished %q after drain, want done", st.Status)
	}
}

// TestReadyzSplit checks the liveness/readiness split: a fresh named
// backend is ready (200, with its ID on the body and the response
// header), and a draining one answers 503 "draining" on /readyz while
// /healthz keeps answering with counters.
func TestReadyzSplit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, ID: "b7"})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rd Ready
	if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rd.Status != "ready" {
		t.Fatalf("fresh readyz: %d %+v, want 200 ready", resp.StatusCode, rd)
	}
	if rd.BackendID != "b7" || resp.Header.Get("X-ABNDP-Backend") != "b7" {
		t.Fatalf("backend ID missing: body %q header %q", rd.BackendID, resp.Header.Get("X-ABNDP-Backend"))
	}
	if rd.Workers != 1 || rd.QueueCap == 0 {
		t.Fatalf("readyz load factors wrong: %+v", rd)
	}
}

func TestReadyzDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rd Ready
	if err := json.NewDecoder(resp.Body).Decode(&rd); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || rd.Status != "draining" {
		t.Fatalf("draining readyz: %d %+v, want 503 draining", resp.StatusCode, rd)
	}
	// Liveness stays up: /healthz still answers (503 body with counters).
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz while draining: %v", err)
	}
	var h Health
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if h.Status != "draining" {
		t.Fatalf("healthz while draining: %+v", h)
	}
}

// TestRetryAfterComputed checks the backpressure hints are derived from
// load, not hard-coded: both the 429 queue-full and the 503 draining
// rejection carry a positive integer Retry-After.
func TestRetryAfterComputed(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 1})
	// One completed run seeds the service-rate observation.
	st, _ := post(t, ts, `{"app":"pr","design":"O","params":{"seed":90001}}`)
	if st = await(t, ts, st.ID); st.Status != StateDone {
		t.Fatalf("seed run finished %q", st.Status)
	}

	gate := make(chan struct{})
	var release sync.Once
	t.Cleanup(func() { release.Do(func() { close(gate) }) })
	s.Runner().SetSimHook(func(app, design string) { <-gate })
	first, _ := post(t, ts, `{"app":"pr","design":"O","params":{"seed":90002}}`)
	for {
		st, _ := get(t, ts, first.ID, "")
		if st.Status == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, resp := post(t, ts, `{"app":"pr","design":"O","params":{"seed":90003}}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue fill: status %d", resp.StatusCode)
	}
	_, resp := post(t, ts, `{"app":"pr","design":"O","params":{"seed":90004}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-full submit: status %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 || secs > 60 {
		t.Fatalf("429 Retry-After %q, want integer in [1,60]", resp.Header.Get("Retry-After"))
	}
	release.Do(func() { close(gate) })

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	_, resp = post(t, ts, `{"app":"pr","design":"O","params":{"seed":90005}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: status %d, want 503", resp.StatusCode)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("503 Retry-After %q, want positive integer", resp.Header.Get("Retry-After"))
	}
}

// TestRouteKey pins the fleet-routing identity: spelling differences that
// cannot change the result (default seed made explicit, check on/off) map
// to one key, while result-changing fields split it.
func TestRouteKey(t *testing.T) {
	base := RunRequest{App: "pr", Design: "O", Params: &ParamsSpec{Scale: 8}}
	explicitSeed := RunRequest{App: "pr", Design: "O", Params: &ParamsSpec{Scale: 8, Seed: 42}}
	checked := base
	checked.Check = true
	if RouteKey(&base) != RouteKey(&explicitSeed) {
		t.Error("default seed vs explicit 42 split the route key")
	}
	if RouteKey(&base) != RouteKey(&checked) {
		t.Error("check flag split the route key")
	}
	otherSeed := RunRequest{App: "pr", Design: "O", Params: &ParamsSpec{Scale: 8, Seed: 7}}
	if RouteKey(&base) == RouteKey(&otherSeed) {
		t.Error("distinct seeds share a route key")
	}
	otherApp := RunRequest{App: "bfs", Design: "O", Params: &ParamsSpec{Scale: 8}}
	if RouteKey(&base) == RouteKey(&otherApp) {
		t.Error("distinct apps share a route key")
	}
	alpha := 0.5
	cfgd := RunRequest{App: "pr", Design: "O", Config: &ConfigSpec{Alpha: &alpha}}
	if RouteKey(&base) == RouteKey(&cfgd) {
		t.Error("config override shares the bare route key")
	}
}

// TestSubmitValidation checks that malformed and contradictory requests
// fail fast with 400 instead of becoming crashed jobs.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, body, wantErr string
	}{
		{"bad json", `{`, "invalid request body"},
		{"unknown field", `{"app":"pr","design":"O","typo":1}`, "unknown field"},
		{"unknown app", `{"app":"nope","design":"O"}`, "unknown workload"},
		{"host design", `{"app":"pr","design":"H"}`, "host baseline"},
		{"unknown design", `{"app":"pr","design":"Z"}`, "design"},
		{"negative params", `{"app":"pr","design":"O","params":{"scale":-1}}`, "non-negative"},
		{"bad fault spec", `{"app":"pr","design":"O","config":{"faults":"bogus"}}`, ""},
		// These used to be accepted with 202 and then fail as jobs:
		// topology.New panicked on a group count that cannot tile the
		// mesh, and nothing bounded the machine size.
		{"camps cannot tile", `{"app":"pr","design":"O","config":{"campcount":2}}`, "cannot tile"},
		{"mesh cannot tile", `{"app":"pr","design":"O","config":{"mesh":3}}`, "cannot tile"},
		{"mesh too large", `{"app":"pr","design":"O","config":{"mesh":64}}`, "MaxUnits"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, resp := post(t, ts, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d (%s), want 400", resp.StatusCode, st.Error)
			}
			if tc.wantErr != "" && !strings.Contains(st.Error, tc.wantErr) {
				t.Fatalf("error %q does not contain %q", st.Error, tc.wantErr)
			}
		})
	}
}

// TestNotFound covers the 404 surfaces.
func TestNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if _, code := get(t, ts, "run-999999", ""); code != http.StatusNotFound {
		t.Fatalf("unknown run: status %d, want 404", code)
	}
	resp, err := http.Get(ts.URL + "/v1/experiments/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown experiment: status %d, want 404", resp.StatusCode)
	}
}

// TestExperimentRender renders a paper table through the service and
// checks the health counters see the runs it cost.
func TestExperimentRender(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, err := http.Get(ts.URL + "/v1/experiments/tab1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tab1: status %d (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "Table 1") {
		t.Fatalf("tab1 render missing header:\n%s", body)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz %d %+v", resp.StatusCode, h)
	}
	if h.Workers != 2 || h.QueueCap == 0 {
		t.Fatalf("healthz geometry wrong: %+v", h)
	}
}

// TestCheckedRun submits a job with check:true and verifies the audit ran
// (and found nothing) on a healthy simulation.
func TestCheckedRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	st, resp := post(t, ts, `{"app":"pr","design":"O","check":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	st = await(t, ts, st.ID)
	if st.Status != StateDone {
		t.Fatalf("checked run finished %q (err %q)", st.Status, st.Error)
	}
	if st.CheckViolations != 0 {
		t.Fatalf("healthy run reported %d check violations", st.CheckViolations)
	}
}

// TestWaitParam covers long-poll edge cases: invalid durations are 400,
// and a wait shorter than the job returns the live state without blocking
// until completion.
func TestWaitParam(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	gate := make(chan struct{})
	var release sync.Once
	t.Cleanup(func() { release.Do(func() { close(gate) }) })
	s.Runner().SetSimHook(func(app, design string) { <-gate })

	first, _ := post(t, ts, `{"app":"pr","design":"O"}`)
	resp, err := http.Get(ts.URL + "/v1/runs/" + first.ID + "?wait=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad wait: status %d, want 400", resp.StatusCode)
	}
	st, code := get(t, ts, first.ID, "?wait=10ms")
	if code != http.StatusOK {
		t.Fatalf("short wait: status %d", code)
	}
	if st.Status == StateDone || st.Status == StateFailed {
		t.Fatalf("job finished under a held gate: %q", st.Status)
	}
	release.Do(func() { close(gate) })
}

// TestCheckpointStoreSharedAcrossJobs: every server shares its checkpoint
// store across jobs (the Config.Checkpoint field is a no-op and is left
// unset here). Jobs that vary only late-binding scheduler knobs (here the
// hybrid alpha) share one prefix shard — the second job must hit the first
// job's cost vectors — while every result hash stays identical to a bare
// direct run.
func TestCheckpointStoreSharedAcrossJobs(t *testing.T) {
	base := config.Default()
	base.UnitBytes = 16 << 20
	s, ts := newTestServer(t, Config{Workers: 1, Base: &base})
	defer apps.EnableInputCache(false)

	store := s.Runner().Store()

	submit := func(alpha float64) *RunStatus {
		body := fmt.Sprintf(
			`{"app":"pr","design":"O","params":{"scale":8,"degree":6,"seed":42},"config":{"alpha":%g}}`,
			alpha)
		st, resp := post(t, ts, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit alpha=%g: status %d (%s)", alpha, resp.StatusCode, st.Error)
		}
		st = await(t, ts, st.ID)
		if st.Status != StateDone {
			t.Fatalf("alpha=%g finished %q (err %q)", alpha, st.Status, st.Error)
		}
		return st
	}

	first := submit(1)
	afterFirst := store.Stats()
	if afterFirst.Inserts == 0 {
		t.Fatal("first job inserted nothing into the store")
	}
	second := submit(3)
	afterSecond := store.Stats()
	if afterSecond.Shards != 1 {
		t.Fatalf("alpha variants split into %d shards, want 1 (prefix key broke)", afterSecond.Shards)
	}
	if afterSecond.Hits <= afterFirst.Hits {
		t.Fatalf("second job reused nothing: hits %d -> %d", afterFirst.Hits, afterSecond.Hits)
	}

	for _, c := range []struct {
		alpha float64
		got   string
	}{{1, first.ResultHash}, {3, second.ResultHash}} {
		cfg := base
		cfg.HybridAlpha = c.alpha
		direct, err := abndp.Run("pr", abndp.DesignO, cfg, abndp.Params{Scale: 8, Degree: 6, Seed: 42})
		if err != nil {
			t.Fatalf("direct run: %v", err)
		}
		if want := fmt.Sprintf("%016x", ndp.ResultHash(direct)); c.got != want {
			t.Fatalf("alpha=%g: service hash %s != direct hash %s", c.alpha, c.got, want)
		}
	}
}
