package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
)

// TestRegistryConcurrent gets or creates one name's counter, gauge and
// histogram from many goroutines under -race: each name resolves to a
// single series, and every goroutine's adds land on it.
func TestRegistryConcurrent(t *testing.T) {
	const goroutines = 16
	r := NewRegistry()
	var wg sync.WaitGroup
	got := make([]*Counter, goroutines)
	hists := make([]*SyncHist, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.Counter(fmt.Sprintf("http_test_ctr_%d", i)).Add(1)
				r.Gauge(fmt.Sprintf("http_test_gauge_%d", i), func() float64 { return float64(i) })
			}
			got[g] = r.Counter("http_test_ctr_0")
			hists[g] = r.Hist("http_test_seconds", "", 1e-6)
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if got[g] != got[0] || hists[g] != hists[0] {
			t.Fatal("concurrent get-or-create returned distinct series for one name")
		}
	}
	if v := r.Counter("http_test_ctr_0").Value(); v != goroutines {
		t.Errorf("http_test_ctr_0 = %d, want %d", v, goroutines)
	}
	if n := len(r.sorted()); n != 101 {
		t.Errorf("%d series registered, want 101 (50 counters, 50 gauges, 1 histogram)", n)
	}
}

// TestDebugServerMetrics boots the debug server on a registry and asserts
// /metrics serves a parseable Prometheus exposition carrying its counters
// and histograms, /debug/vars the same counters as flat JSON, and
// /debug/pprof/ the profile index.
func TestDebugServerMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("http_test_metrics_counter").Add(3)
	reg.Hist("http_test_metrics_seconds", "Debug-server test histogram.", 1e-6).Observe(1500)

	addr, err := StartDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	fetch := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	resp, body := fetch("/metrics")
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	series := parseExposition(t, string(body))
	if got := series["http_test_metrics_counter"]; got != 3 {
		t.Errorf("counter = %v, want 3", got)
	}
	if got := series[`http_test_metrics_seconds_bucket{le="+Inf"}`]; got != 1 {
		t.Errorf("+Inf bucket = %v, want 1", got)
	}

	_, body = fetch("/debug/vars")
	var vars map[string]float64
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars: %v\n%s", err, body)
	}
	if vars["http_test_metrics_counter"] != 3 || vars["http_test_metrics_seconds_count"] != 1 {
		t.Errorf("/debug/vars = %v, want the counter at 3 and one histogram sample", vars)
	}
	fetch("/debug/pprof/")

	// A second debug server serves its own registry.
	if _, err := StartDebugServer("127.0.0.1:0", NewRegistry()); err != nil {
		t.Fatal(err)
	}
}
