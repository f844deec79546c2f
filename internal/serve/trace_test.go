package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing slog output
// written concurrently by workers and handlers.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTraceAndLogging drives one job through a trace-dir-enabled server and
// checks the full observability contract: the status carries a request ID
// and (once done) a trace-file path; the trace file is valid Chrome JSON
// holding both serve-tier request spans and engine tracks, all keyed by the
// request ID; and the structured log stream carries the request lifecycle
// as JSON records with matching request IDs.
func TestTraceAndLogging(t *testing.T) {
	dir := t.TempDir()
	var logBuf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	_, ts := newTestServer(t, Config{TraceDir: dir, Logger: logger})

	st, resp := post(t, ts, `{"app":"pr","design":"B"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if !strings.HasPrefix(st.RequestID, "req-") {
		t.Fatalf("RequestID = %q, want req-NNNNNN", st.RequestID)
	}
	rid := st.RequestID

	final, code := get(t, ts, st.ID, "?wait=60s")
	if code != http.StatusOK || final.Status != StateDone {
		t.Fatalf("run did not finish: code %d status %+v", code, final)
	}
	if final.RequestID != rid {
		t.Errorf("final RequestID = %q, want %q", final.RequestID, rid)
	}
	if final.TraceFile == "" {
		t.Fatalf("finished job has no TraceFile")
	}

	raw, err := os.ReadFile(final.TraceFile)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	var doc struct {
		Events []struct {
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	// Serve tier: the request spans under the dedicated serve pid, each
	// carrying the request ID, with the process metadata naming it.
	serveSpans := map[string]bool{}
	engineSpans := 0
	procNamed := false
	for _, e := range doc.Events {
		switch {
		case e.Pid == 1<<20 && e.Ph == "X":
			serveSpans[e.Name] = true
			if got, _ := e.Args["request_id"].(string); got != rid {
				t.Errorf("serve span %q request_id = %q, want %q", e.Name, got, rid)
			}
		case e.Pid == 1<<20 && e.Ph == "M" && e.Name == "process_name":
			if n, _ := e.Args["name"].(string); strings.Contains(n, rid) {
				procNamed = true
			}
		case e.Pid != 1<<20 && e.Ph == "X":
			engineSpans++
		}
	}
	for _, want := range []string{"submit", "queue wait", "run"} {
		if !serveSpans[want] {
			t.Errorf("trace missing serve span %q (have %v)", want, serveSpans)
		}
	}
	if !procNamed {
		t.Errorf("serve process metadata does not carry request ID %q", rid)
	}
	if engineSpans == 0 {
		t.Errorf("trace has no engine spans — the observer was not installed on the run")
	}

	// Dedup'd resubmission: joins the existing job, writes no second trace.
	st2, _ := post(t, ts, `{"app":"pr","design":"B"}`)
	if !st2.Dedup {
		t.Fatalf("resubmission not dedup'd: %+v", st2)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("trace dir holds %d files, want 1 (dedup must not re-trace)", len(entries))
	}

	// Structured logs: JSON records keyed by the request ID for the
	// accepted submission, run start, run done, and the dedup join.
	wantMsgs := map[string]bool{"submit accepted": false, "run start": false, "run done": false, "submit dedup": false}
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		msg, _ := rec["msg"].(string)
		if _, ok := wantMsgs[msg]; !ok {
			continue
		}
		switch msg {
		case "submit dedup":
			if got, _ := rec["joined_request_id"].(string); got != rid {
				t.Errorf("dedup log joined_request_id = %q, want %q", got, rid)
			}
		default:
			if got, _ := rec["request_id"].(string); got != rid {
				t.Errorf("log %q request_id = %q, want %q", msg, got, rid)
			}
		}
		wantMsgs[msg] = true
	}
	for msg, seen := range wantMsgs {
		if !seen {
			t.Errorf("structured log missing %q record", msg)
		}
	}
}

// TestHealthzLatency checks that /healthz reports the request-latency
// quantile block once jobs have completed.
func TestHealthzLatency(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st, _ := post(t, ts, `{"app":"bfs","design":"C"}`)
	if _, code := get(t, ts, st.ID, "?wait=60s"); code != http.StatusOK {
		t.Fatalf("wait: code %d", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Latency == nil || h.Latency.Count < 1 {
		t.Fatalf("healthz latency block missing or empty: %+v", h.Latency)
	}
	if h.Latency.P50 < 0 || h.Latency.P99 < h.Latency.P50 {
		t.Errorf("implausible quantiles: %+v", h.Latency)
	}
}

// TestMetricsEndpoint scrapes the server-mounted /metrics and checks the
// serving series are present in Prometheus exposition form.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Checkpoint: true})
	st, _ := post(t, ts, `{"app":"spmv","design":"O"}`)
	if _, code := get(t, ts, st.ID, "?wait=60s"); code != http.StatusOK {
		t.Fatalf("wait: code %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, series := range []string{
		"serve_jobs_submitted",
		"serve_queue_depth",
		"serve_events_total",
		"serve_ckpt_hits",
		"serve_request_seconds_bucket{le=\"+Inf\"}",
		"serve_request_seconds_count",
		"serve_queue_wait_seconds_sum",
		"# TYPE serve_request_seconds histogram",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
}

// fetchJSON decodes the JSON body of GET path on ts into v.
func fetchJSON(t *testing.T, ts *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

// scrape reads the unlabelled series of ts's /metrics.
func scrape(t *testing.T, ts *httptest.Server) map[string]float64 {
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
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

// TestTwoServersReportTheirOwn builds two Servers in one process and runs
// one job on the second only. Each server's /metrics, /debug/vars and
// /readyz report its own jobs, engine events and checkpoint store: the
// first reads zero and no mean run time, and the second reads its Runner's
// and store's own counts.
func TestTwoServersReportTheirOwn(t *testing.T) {
	_, idleTS := newTestServer(t, Config{})
	busy, busyTS := newTestServer(t, Config{})
	st, _ := post(t, busyTS, `{"app":"pr","design":"O"}`)
	if st = await(t, busyTS, st.ID); st.Status != StateDone {
		t.Fatalf("job finished %q (%s)", st.Status, st.Error)
	}

	idle := scrape(t, idleTS)
	for _, name := range []string{"serve_jobs_submitted", "serve_jobs_completed", "serve_run_seconds_count", "serve_events_total", "bench_runs_done"} {
		if v, ok := idle[name]; !ok || v != 0 {
			t.Errorf("idle server: %s = %v (present %v), want 0", name, v, ok)
		}
	}
	var idleVars map[string]float64
	fetchJSON(t, idleTS, "/debug/vars", &idleVars)
	if v, ok := idleVars["serve_jobs_completed"]; !ok || v != 0 {
		t.Errorf("idle server /debug/vars: serve_jobs_completed = %v (present %v), want 0", v, ok)
	}
	var rd map[string]any
	fetchJSON(t, idleTS, "/readyz", &rd)
	if v, ok := rd["mean_run_seconds"]; ok {
		t.Errorf("idle server /readyz carries mean_run_seconds %v", v)
	}

	got := scrape(t, busyTS)
	events, _ := busy.Runner().EngineTotals()
	stats := busy.Runner().Store().Stats()
	if events == 0 || stats.Misses == 0 {
		t.Fatalf("the job left %d engine events and %d store misses; the test needs a run that uses both", events, stats.Misses)
	}
	for name, want := range map[string]float64{
		"serve_jobs_submitted":    1,
		"serve_jobs_completed":    1,
		"serve_run_seconds_count": 1,
		"serve_events_total":      float64(events),
		"serve_ckpt_misses":       float64(stats.Misses),
	} {
		if got[name] != want {
			t.Errorf("busy server: %s = %v, want %v", name, got[name], want)
		}
	}
	var busyVars map[string]float64
	fetchJSON(t, busyTS, "/debug/vars", &busyVars)
	if busyVars["serve_jobs_submitted"] != 1 || busyVars["serve_events_total"] != float64(events) {
		t.Errorf("busy server /debug/vars = %v, want 1 submitted job and %d events", busyVars, events)
	}
}
