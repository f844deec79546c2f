package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the metrics surface of the serving tier: a Registry of
// counters, gauges and latency histograms that one instance owns, rendered
// in the Prometheus text format (version 0.0.4) at /metrics and as flat
// JSON at /debug/vars. Nothing here touches the simulation hot path.

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Add adds n to the count.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Registry holds the metric series of one instance (a serve.Server, a
// fleet.Coordinator, a bench.Runner), so two instances in one process
// report only their own numbers. Counter, Gauge and Hist get or create a
// series; they take the registry's lock, so an instance looks its series
// up once, when it is built, and updates them without a lookup.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series // by name and rendered labels
}

// series is one registered series: typ says which of counter, gauge and
// hist is set.
type series struct {
	name, labels, help, typ string

	counter *Counter
	gauge   func() float64
	hist    *SyncHist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{series: map[string]*series{}} }

// lookup returns the series registered under name and labels, creating it
// with mk on first use. Registering one series as two types panics.
func (r *Registry) lookup(name, labels, typ string, mk func(*series)) *series {
	key := name + "{" + labels + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.series[key]
	if s == nil {
		s = &series{name: promName(name), labels: labels, typ: typ}
		mk(s)
		r.series[key] = s
	} else if s.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", key, s.typ, typ))
	}
	return s
}

// Counter returns the counter registered under name, creating it at 0.
func (r *Registry) Counter(name string) *Counter {
	return r.lookup(name, "", "counter", func(s *series) { s.counter = new(Counter) }).counter
}

// Gauge registers a gauge whose value f computes at each render. A name
// already registered keeps its first f.
func (r *Registry) Gauge(name string, f func() float64) {
	r.lookup(name, "", "gauge", func(s *series) { s.gauge = f })
}

// Hist returns the latency histogram registered under name and the label
// pairs (label, value, label, value, ...), creating it with help and scale
// (see SyncHist; scale <= 0 means 1) on first use. The label sets of one
// name render as one family, each line carrying its labels, as the fleet's
// per-backend latency does (fleet_backend_request_seconds{backend="b1"}).
func (r *Registry) Hist(name, help string, scale float64, labelPairs ...string) *SyncHist {
	var labels strings.Builder
	for i := 0; i+1 < len(labelPairs); i += 2 {
		if i > 0 {
			labels.WriteByte(',')
		}
		labels.WriteString(labelPairs[i] + `="` + escapeLabel(labelPairs[i+1]) + `"`)
	}
	if scale <= 0 {
		scale = 1
	}
	return r.lookup(name, labels.String(), "histogram", func(s *series) {
		s.help, s.hist = help, &SyncHist{scale: scale}
	}).hist
}

// sorted returns the series by name, then labels, so the label sets of one
// family are adjacent. Renders read the series outside the lock, so a
// gauge may take locks of its own.
func (r *Registry) sorted() []*series {
	r.mu.Lock()
	out := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format, sorted by name with one HELP/TYPE block per family: counters,
// gauges, and histograms as cumulative log-spaced buckets. The process's
// go_* runtime gauges follow.
func (r *Registry) WritePrometheus(w io.Writer) {
	prev := ""
	for _, s := range r.sorted() {
		if s.name != prev {
			if s.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", s.name, s.help)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", s.name, s.typ)
			prev = s.name
		}
		switch {
		case s.counter != nil:
			fmt.Fprintf(w, "%s %d\n", s.name, s.counter.Value())
		case s.gauge != nil:
			fmt.Fprintf(w, "%s %s\n", s.name, fmtFloat(s.gauge()))
		default:
			writeHist(w, s.name, s.labels, s.hist)
		}
	}
	var rt runtime.MemStats
	runtime.ReadMemStats(&rt)
	for _, g := range []struct {
		name string
		val  float64
	}{
		{"go_goroutines", float64(runtime.NumGoroutine())},
		{"go_memstats_alloc_bytes", float64(rt.Alloc)},
		{"go_memstats_num_gc", float64(rt.NumGC)},
		{"go_memstats_sys_bytes", float64(rt.Sys)},
		{"go_memstats_total_alloc_bytes", float64(rt.TotalAlloc)},
	} {
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", g.name, g.name, fmtFloat(g.val))
	}
}

// WriteJSON renders the registry as one flat JSON object: each counter and
// gauge under its name, and each histogram as <name>_count and <name>_sum
// (in the exposed unit), its labels appended to both keys.
func (r *Registry) WriteJSON(w io.Writer) error {
	m := map[string]any{}
	for _, s := range r.sorted() {
		switch {
		case s.counter != nil:
			m[s.name] = s.counter.Value()
		case s.gauge != nil:
			m[s.name] = s.gauge()
		default:
			labels := ""
			if s.labels != "" {
				labels = "{" + s.labels + "}"
			}
			h := s.hist.Snapshot()
			m[s.name+"_count"+labels] = h.Count
			m[s.name+"_sum"+labels] = float64(h.Sum) * s.hist.scale
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Handler serves the registry as Prometheus text (/metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// JSONHandler serves the registry as flat JSON (/debug/vars).
func (r *Registry) JSONHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w) // the 200 is sent: an error has no one left to tell
	})
}

// SyncHist is a concurrency-safe wrapper around Hist for serving-tier
// latency tracking: many request goroutines Observe concurrently, and the
// /metrics scrape renders a consistent snapshot. Samples are recorded as
// int64 in the caller's unit (typically microseconds); scale converts them
// to the exposed unit at render time (1e-6 exposes seconds), keeping the
// hot Observe path integer-only. Registry.Hist creates them.
type SyncHist struct {
	scale float64

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

// labelEscaper escapes a label value per the exposition format. Built once:
// a Replacer is safe for concurrent use, and building one costs a 256-entry
// table.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string { return labelEscaper.Replace(s) }

// promName sanitizes a metric name into the Prometheus metric-name
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

// writeHist renders one SyncHist as a cumulative Prometheus histogram. The
// le bounds are the inclusive upper edges of the log-spaced Hist buckets
// (2^i - 1 samples, times scale), so p50/p95/p99 recovered from the
// buckets — by Hist.Quantile here or histogram_quantile server-side — agree.
func writeHist(w io.Writer, name, pairs string, s *SyncHist) {
	// A labeled series merges its label pairs into every line: the fixed
	// labels alone on _sum/_count, and joined with le on _bucket.
	labels, le := "", ""
	if pairs != "" {
		labels = "{" + pairs + "}"
		le = pairs + ","
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
