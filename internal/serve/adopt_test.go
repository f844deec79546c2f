package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func postAdopt(t *testing.T, ts *httptest.Server, fleetJob, body string) (*RunStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs/"+fleetJob+"/adopt", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST adopt: %v", err)
	}
	defer resp.Body.Close()
	var st RunStatus
	raw := new(bytes.Buffer)
	_, _ = raw.ReadFrom(resp.Body)
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusCreated {
		if err := json.Unmarshal(raw.Bytes(), &st); err != nil {
			t.Fatalf("decode %q: %v", raw.String(), err)
		}
	} else {
		st.Error = raw.String()
	}
	return &st, resp
}

const adoptBody = `{
	"request": {"app":"pr","design":"O","params":{"scale":8,"degree":6,"seed":42}},
	"result_hash": "00000000deadbeef",
	"result": {"makespan_cycles": 1234, "seconds": 0.5, "tasks": 64}
}`

// TestAdoptRegistersTerminalJob pins the adopt contract: a replicated
// result becomes a terminal job under the request's canonical key —
// polls (including ?wait) answer instantly, a later direct submission of
// the same spec dedup-joins it, and not one simulation executes.
func TestAdoptRegistersTerminalJob(t *testing.T) {
	s, ts := newTestServer(t, Config{ID: "adoptee", Workers: 1})

	st, resp := postAdopt(t, ts, "job-000042", adoptBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("adopt: status %d (%s), want 201", resp.StatusCode, st.Error)
	}
	if st.Status != StateDone || !st.Adopted || st.ResultHash != "00000000deadbeef" {
		t.Fatalf("adopted job %+v, want done/adopted/00000000deadbeef", st)
	}
	if st.Result == nil || st.Result.Makespan != 1234 {
		t.Fatalf("adopted job lost its summary: %+v", st.Result)
	}
	if st.ID == "job-000042" {
		t.Fatal("backend reused the fleet job ID; it must assign its own run ID")
	}

	// ?wait must return immediately: the job is terminal from birth.
	t0 := time.Now()
	polled, code := get(t, ts, st.ID, "?wait=30s")
	if code != http.StatusOK || polled.Status != StateDone || !polled.Adopted {
		t.Fatalf("poll of adopted job: %d %+v", code, polled)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("?wait on a terminal adopted job blocked %v", d)
	}

	// A direct submission of the same spec joins the adopted job.
	joined, resp2 := post(t, ts, `{"app":"pr","design":"O","params":{"scale":8,"degree":6,"seed":42}}`)
	if resp2.StatusCode != http.StatusOK || !joined.Dedup {
		t.Fatalf("same-spec submit: status %d %+v, want 200 dedup join", resp2.StatusCode, joined)
	}
	if joined.ResultHash != "00000000deadbeef" {
		t.Fatalf("dedup join hash %q, want the adopted hash", joined.ResultHash)
	}

	// The whole flow cost zero simulations.
	if n := s.Runner().RunsExecuted(); n != 0 {
		t.Fatalf("adoption executed %d simulations, want 0", n)
	}

	// Re-adopting the same key is a no-op join, not an overwrite.
	again, resp3 := postAdopt(t, ts, "job-000043", adoptBody)
	if resp3.StatusCode != http.StatusOK || !again.Dedup || again.ID != st.ID {
		t.Fatalf("re-adopt: status %d %+v, want 200 join of %s", resp3.StatusCode, again, st.ID)
	}

	// Health surfaces the adoption counter.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer hresp.Body.Close()
	var h Health
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatalf("decode health: %v", err)
	}
	if h.Adopted != 1 {
		t.Fatalf("health jobs_adopted = %d, want 1", h.Adopted)
	}
}

// TestAdoptValidation pins the 400 paths: malformed body, unknown
// fields, missing hash/result, an unparsable hash, and a bad spec.
func TestAdoptValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for name, body := range map[string]string{
		"malformed":    `{`,
		"unknown":      `{"bogus": 1}`,
		"missing hash": `{"request":{"app":"pr","design":"O"},"result":{"makespan_cycles":1}}`,
		"missing result": `{"request":{"app":"pr","design":"O"},
			"result_hash":"00000000deadbeef"}`,
		"bad hash": `{"request":{"app":"pr","design":"O"},
			"result_hash":"not-hex","result":{"makespan_cycles":1}}`,
		"bad spec": `{"request":{"app":"nonesuch","design":"O"},
			"result_hash":"00000000deadbeef","result":{"makespan_cycles":1}}`,
	} {
		if st, resp := postAdopt(t, ts, "job-000001", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, st.Error)
		}
	}
}

// TestAdoptWhileDraining: a draining backend must refuse replication —
// its jobs are about to be someone else's problem.
func TestAdoptWhileDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st, resp := postAdopt(t, ts, "job-000001", adoptBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("adopt while draining: status %d (%s), want 503", resp.StatusCode, st.Error)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After hint")
	}
}
