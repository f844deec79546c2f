package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var (
	promNameRe   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promSeriesRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	promLabelRe  = regexp.MustCompile(`^\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\}$`)
)

// parseExposition validates text as Prometheus exposition format (the
// subset Registry.WritePrometheus emits): every line is a # HELP, # TYPE, or
// series line; every series name matches its preceding TYPE family; every
// value parses as a float. It returns the series it saw.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	series := map[string]float64{}
	typed := map[string]string{} // family -> type
	var curFamily string
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			if !promNameRe.MatchString(parts[2]) {
				t.Fatalf("line %d: invalid metric name %q", ln+1, parts[2])
			}
			if parts[1] == "TYPE" {
				typ := strings.TrimSpace(parts[3])
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					t.Fatalf("line %d: invalid TYPE %q", ln+1, typ)
				}
				if _, dup := typed[parts[2]]; dup {
					t.Fatalf("line %d: duplicate TYPE for %q", ln+1, parts[2])
				}
				typed[parts[2]] = typ
				curFamily = parts[2]
			}
			continue
		}
		m := promSeriesRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed series line %q", ln+1, line)
		}
		name, labels, valStr := m[1], m[2], m[3]
		if labels != "" && !promLabelRe.MatchString(labels) {
			t.Fatalf("line %d: malformed labels %q", ln+1, labels)
		}
		var v float64
		if valStr == "+Inf" || valStr == "-Inf" || valStr == "NaN" {
			// allowed exposition values
		} else {
			f, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Fatalf("line %d: unparseable value %q: %v", ln+1, valStr, err)
			}
			v = f
		}
		// A histogram family's series carry the _bucket/_sum/_count suffix.
		if curFamily != "" && typed[curFamily] == "histogram" && strings.HasPrefix(name, curFamily+"_") {
			suffix := strings.TrimPrefix(name, curFamily+"_")
			switch suffix {
			case "bucket", "sum", "count":
			default:
				t.Fatalf("line %d: unexpected histogram series %q", ln+1, name)
			}
		}
		series[name+labels] = v
	}
	return series
}

func TestWritePrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("prom_test_counter").Add(7)
	r.Gauge("prom_test_gauge", func() float64 { return 42 })
	h := r.Hist("prom_test_seconds", "Test latency histogram.", 1e-6)
	for _, us := range []int64{10, 100, 1000, 150000, 2_000_000} {
		h.Observe(us)
	}

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	series := parseExposition(t, buf.String())

	if got := series["prom_test_counter"]; got != 7 {
		t.Errorf("prom_test_counter = %v, want 7", got)
	}
	if got := series["prom_test_gauge"]; got != 42 {
		t.Errorf("prom_test_gauge = %v, want 42", got)
	}
	if got := series[`prom_test_seconds_bucket{le="+Inf"}`]; got != 5 {
		t.Errorf(`+Inf bucket = %v, want 5`, got)
	}
	if got := series["prom_test_seconds_count"]; got != 5 {
		t.Errorf("count = %v, want 5", got)
	}
	wantSum := float64(10+100+1000+150000+2_000_000) / 1e6
	if got := series["prom_test_seconds_sum"]; got < wantSum*0.999 || got > wantSum*1.001 {
		t.Errorf("sum = %v, want ~%v", got, wantSum)
	}
	// Cumulative buckets are monotone non-decreasing in le order.
	var prev float64
	for i := 1; i < histBuckets-1; i++ {
		_, hi := BucketBounds(i)
		key := fmt.Sprintf(`prom_test_seconds_bucket{le="%s"}`, fmtFloat(float64(hi)*1e-6))
		cur, ok := series[key]
		if !ok {
			t.Fatalf("missing bucket series %s", key)
		}
		if cur < prev {
			t.Fatalf("bucket %s not cumulative: %v after %v", key, cur, prev)
		}
		prev = cur
	}
	// Only the registry's series and the runtime gauges, which follow them.
	var families []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, name)
		}
	}
	want := []string{"prom_test_counter counter", "prom_test_gauge gauge", "prom_test_seconds histogram",
		"go_goroutines gauge", "go_memstats_alloc_bytes gauge", "go_memstats_num_gc gauge",
		"go_memstats_sys_bytes gauge", "go_memstats_total_alloc_bytes gauge"}
	if strings.Join(families, "; ") != strings.Join(want, "; ") {
		t.Errorf("families = %q, want %q", families, want)
	}
}

// TestRegistryHistLabel checks the labeled-family exposition the fleet
// uses for per-backend latency: two backends' series render under one
// HELP/TYPE block, each line carrying its backend label, and both parse
// as valid exposition.
func TestRegistryHistLabel(t *testing.T) {
	r := NewRegistry()
	b1 := r.Hist("prom_test_labeled_seconds", "Per-backend test latency.", 1e-6, "backend", "b1")
	b2 := r.Hist("prom_test_labeled_seconds", "Per-backend test latency.", 1e-6, "backend", "b2")
	if b1 == b2 {
		t.Fatal("distinct label values share one histogram")
	}
	if again := r.Hist("prom_test_labeled_seconds", "", 1, "backend", "b1"); again != b1 {
		t.Fatal("re-registration of one labeled series returned a new histogram")
	}
	b1.Observe(1000)
	b1.Observe(2000)
	b2.Observe(500)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	series := parseExposition(t, buf.String())

	if got := series[`prom_test_labeled_seconds_count{backend="b1"}`]; got != 2 {
		t.Errorf(`b1 count = %v, want 2`, got)
	}
	if got := series[`prom_test_labeled_seconds_count{backend="b2"}`]; got != 1 {
		t.Errorf(`b2 count = %v, want 1`, got)
	}
	if got := series[`prom_test_labeled_seconds_bucket{backend="b1",le="+Inf"}`]; got != 2 {
		t.Errorf(`b1 +Inf bucket = %v, want 2`, got)
	}
	if got := series[`prom_test_labeled_seconds_sum{backend="b2"}`]; got != 500e-6 {
		t.Errorf(`b2 sum = %v, want 0.0005`, got)
	}
	// One TYPE block for the whole family (parseExposition fails on
	// duplicates); both labeled series present.
	if n := strings.Count(buf.String(), "# TYPE prom_test_labeled_seconds histogram"); n != 1 {
		t.Errorf("family TYPE emitted %d times, want 1", n)
	}

	buf.Reset()
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var vars map[string]float64
	if err := json.Unmarshal(buf.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	if got := vars[`prom_test_labeled_seconds_count{backend="b1"}`]; got != 2 {
		t.Errorf("JSON b1 count = %v, want 2 (%v)", got, vars)
	}
}

func TestEscapeLabel(t *testing.T) {
	if got := escapeLabel(`a"b\c` + "\n"); got != `a\"b\\c\n` {
		t.Errorf("escapeLabel = %q", got)
	}
}

func TestSyncHistQuantileScale(t *testing.T) {
	h := NewRegistry().Hist("prom_test_scale_seconds", "", 1e-6)
	for i := 0; i < 1000; i++ {
		h.Observe(1_000_000) // 1s in microseconds
	}
	p50 := h.Quantile(0.5)
	if p50 < 0.5 || p50 > 2.0 {
		t.Errorf("p50 = %v s, want ~1s (factor-2 bucket bound)", p50)
	}
}

// TestRegistryGetOrCreate: each getter returns the series first
// registered under a name (a gauge keeps its first function), one registry
// does not see another's series, and one name cannot hold two types.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if a, b := r.Hist("prom_test_idem", "first", 1), r.Hist("prom_test_idem", "second", 2); a != b {
		t.Fatal("Hist returned distinct histograms for one name")
	}
	if r.Counter("prom_test_ctr") != r.Counter("prom_test_ctr") {
		t.Fatal("Counter returned distinct counters for one name")
	}
	r.Gauge("prom_test_gauge", func() float64 { return 1 })
	r.Gauge("prom_test_gauge", func() float64 { return 2 })
	r.Counter("prom_test_ctr").Add(5)
	other := NewRegistry()
	if other.Counter("prom_test_ctr").Value() != 0 {
		t.Fatal("a new registry shares another's counter")
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	series := parseExposition(t, buf.String())
	if series["prom_test_gauge"] != 1 || series["prom_test_ctr"] != 5 {
		t.Errorf("gauge = %v, counter = %v; want 1 and 5", series["prom_test_gauge"], series["prom_test_ctr"])
	}
	defer func() {
		if recover() == nil {
			t.Error("registering a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("prom_test_ctr", func() float64 { return 0 })
}

func TestSyncHistConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Hist("prom_test_concurrent", "", 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(int64(g*1000 + i))
			}
		}(g)
	}
	// Concurrent scrapes while observing.
	for i := 0; i < 10; i++ {
		var buf bytes.Buffer
		r.WritePrometheus(&buf)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 8000 {
		t.Errorf("count = %d, want 8000", got)
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"serve_jobs_submitted": "serve_jobs_submitted",
		"bad-name.with:chars":  "bad_name_with:chars",
		"9leading":             "_9leading",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
		if !promNameRe.MatchString(promName(in)) {
			t.Errorf("promName(%q) = %q invalid", in, promName(in))
		}
	}
}
