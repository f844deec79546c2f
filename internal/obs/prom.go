package obs

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the Prometheus exposition surface of the observability
// subsystem: every expvar counter and gauge the harness and serving layer
// already publish, plus the concurrency-safe latency histograms below,
// rendered in the Prometheus text format (version 0.0.4) at /metrics.
// Nothing here touches the simulation hot path — the exposition walks the
// process-global registries only when scraped.

// SyncHist is a concurrency-safe wrapper around Hist for serving-tier
// latency tracking: many request goroutines Observe concurrently, and the
// /metrics scrape renders a consistent snapshot. Samples are recorded as
// int64 in the caller's unit (typically microseconds); Scale converts them
// to the exposed unit at render time (1e-6 exposes seconds), keeping the
// hot Observe path integer-only.
type SyncHist struct {
	name   string
	help   string
	scale  float64
	labels string // pre-rendered label pairs, e.g. `backend="b1"` (may be empty)

	mu sync.Mutex
	h  Hist
}

// Observe records one sample (clamped at zero, like Hist.Observe).
func (s *SyncHist) Observe(v int64) {
	s.mu.Lock()
	s.h.Observe(v)
	s.mu.Unlock()
}

// ObserveSince records the elapsed time since t0 in microseconds — the
// one-line form of the serving layer's latency probes.
func (s *SyncHist) ObserveSince(t0 time.Time) {
	s.Observe(time.Since(t0).Microseconds())
}

// Snapshot returns a copy of the underlying histogram, safe to read while
// other goroutines keep observing.
func (s *SyncHist) Snapshot() Hist {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h
}

// Quantile estimates the q-quantile of the recorded samples in the
// exposed unit (sample quantile times Scale).
func (s *SyncHist) Quantile(q float64) float64 {
	h := s.Snapshot()
	return h.Quantile(q) * s.scale
}

// histRegistry holds every PublishedHist, keyed by exposition name.
var (
	histMu       sync.Mutex
	histRegistry = map[string]*SyncHist{}
)

// PublishedHist returns the process-wide histogram registered under name,
// creating it on first use. Like Published, registration is permanent and
// idempotent: the first (help, scale) wins, so re-creating a Server in
// tests shares the histogram instead of panicking. The name must be a
// valid Prometheus metric name.
func PublishedHist(name, help string, scale float64) *SyncHist {
	histMu.Lock()
	defer histMu.Unlock()
	if h, ok := histRegistry[name]; ok {
		return h
	}
	if scale <= 0 {
		scale = 1
	}
	h := &SyncHist{name: name, help: help, scale: scale}
	histRegistry[name] = h
	return h
}

// PublishedHistLabel is PublishedHist for one labeled series of a metric
// family: every (name, label=value) pair gets its own histogram, and the
// exposition renders them as one family — one HELP/TYPE block, with the
// label merged into each _bucket/_sum/_count line alongside le. The
// serving fleet uses it for per-backend request latency
// (fleet_backend_request_seconds{backend="b1"}). Registration is permanent
// and idempotent per (name, label, value), like PublishedHist.
func PublishedHistLabel(name, help string, scale float64, label, value string) *SyncHist {
	labels := label + `="` + escapeLabel(value) + `"`
	key := name + "{" + labels + "}"
	histMu.Lock()
	defer histMu.Unlock()
	if h, ok := histRegistry[key]; ok {
		return h
	}
	if scale <= 0 {
		scale = 1
	}
	h := &SyncHist{name: name, help: help, scale: scale, labels: labels}
	histRegistry[key] = h
	return h
}

// labelEscaper escapes a label value per the exposition format. Built once:
// a Replacer is safe for concurrent use, and building one costs a 256-entry
// table.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string { return labelEscaper.Replace(s) }

// promName sanitizes an expvar name into the Prometheus metric-name
// alphabet [a-zA-Z0-9_:], mapping every other byte to '_'.
func promName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// fmtFloat renders a sample value the way Prometheus expects (shortest
// round-trip form; integers without an exponent).
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the process's whole metric surface in the
// Prometheus text exposition format: every expvar *Int as a counter, every
// numeric expvar.Func as a gauge (the registries Published/PublishedFunc
// fill), every PublishedHist as a cumulative histogram with log-spaced
// buckets, plus a few Go runtime gauges. Output is sorted by metric name,
// so scrapes of an idle process are byte-stable.
func WritePrometheus(w io.Writer) {
	type metric struct {
		name, typ, help string
		sort            string // sort key; empty means name (labeled series append their labels)
		render          func(io.Writer, string)
	}
	var ms []metric

	expvar.Do(func(kv expvar.KeyValue) {
		switch kv.Key {
		case "cmdline", "memstats":
			return // raw JSON blobs, not Prometheus series
		}
		name := promName(kv.Key)
		switch v := kv.Value.(type) {
		case *expvar.Int:
			val := v.Value()
			ms = append(ms, metric{name: name, typ: "counter", render: func(w io.Writer, n string) {
				fmt.Fprintf(w, "%s %d\n", n, val)
			}})
		case *expvar.Float:
			val := v.Value()
			ms = append(ms, metric{name: name, typ: "gauge", render: func(w io.Writer, n string) {
				fmt.Fprintf(w, "%s %s\n", n, fmtFloat(val))
			}})
		case expvar.Func:
			var val float64
			switch x := v.Value().(type) {
			case int:
				val = float64(x)
			case int64:
				val = float64(x)
			case float64:
				val = x
			case uint64:
				val = float64(x)
			default:
				return // non-numeric gauge; not exposable
			}
			ms = append(ms, metric{name: name, typ: "gauge", render: func(w io.Writer, n string) {
				fmt.Fprintf(w, "%s %s\n", n, fmtFloat(val))
			}})
		}
	})

	var rt runtime.MemStats
	runtime.ReadMemStats(&rt)
	runtimeGauges := []struct {
		name string
		val  float64
	}{
		{"go_goroutines", float64(runtime.NumGoroutine())},
		{"go_memstats_alloc_bytes", float64(rt.Alloc)},
		{"go_memstats_sys_bytes", float64(rt.Sys)},
		{"go_memstats_total_alloc_bytes", float64(rt.TotalAlloc)},
		{"go_memstats_num_gc", float64(rt.NumGC)},
	}
	for _, g := range runtimeGauges {
		val := g.val
		ms = append(ms, metric{name: g.name, typ: "gauge", render: func(w io.Writer, n string) {
			fmt.Fprintf(w, "%s %s\n", n, fmtFloat(val))
		}})
	}

	histMu.Lock()
	hists := make([]*SyncHist, 0, len(histRegistry))
	for _, h := range histRegistry {
		hists = append(hists, h)
	}
	histMu.Unlock()
	for _, h := range hists {
		h := h
		ms = append(ms, metric{name: promName(h.name), sort: promName(h.name) + "{" + h.labels, typ: "histogram", help: h.help,
			render: func(w io.Writer, n string) { writeHist(w, n, h) }})
	}

	sort.Slice(ms, func(i, j int) bool {
		si, sj := ms[i].sort, ms[j].sort
		if si == "" {
			si = ms[i].name
		}
		if sj == "" {
			sj = ms[j].name
		}
		return si < sj
	})
	// Labeled series of one family sort adjacent; emit the HELP/TYPE block
	// once per family (duplicate TYPE lines are invalid exposition).
	prev := ""
	for _, m := range ms {
		if m.name != prev {
			if m.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.typ)
			prev = m.name
		}
		m.render(w, m.name)
	}
}

// writeHist renders one SyncHist as a cumulative Prometheus histogram. The
// le bounds are the inclusive upper edges of the log-spaced Hist buckets
// (2^i - 1 samples, times Scale), so p50/p95/p99 recovered from the
// buckets — by Hist.Quantile here or histogram_quantile server-side — agree.
func writeHist(w io.Writer, name string, s *SyncHist) {
	// A labeled series merges its label pairs into every line: the fixed
	// labels alone on _sum/_count, and joined with le on _bucket.
	labels, le := "", ""
	if s.labels != "" {
		labels = "{" + s.labels + "}"
		le = s.labels + ","
	}
	h := s.Snapshot()
	var cum int64
	for i, c := range h.Buckets {
		cum += c
		_, hi := BucketBounds(i)
		if i == len(h.Buckets)-1 {
			break // the open-ended bucket is the +Inf line below
		}
		fmt.Fprintf(w, "%s_bucket{%sle=\"%s\"} %d\n", name, le, fmtFloat(float64(hi)*s.scale), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, le, h.Count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, fmtFloat(float64(h.Sum)*s.scale))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count)
}

// PromHandler returns the /metrics HTTP handler.
func PromHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w)
	})
}
