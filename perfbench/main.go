// Command perfbench is the repository benchmark: it drives the simulator
// and the serving fleet through their public entry points on two named
// workloads and prints one JSON result line (see README.md).
//
//	bash perfbench/run.sh --workload matrix-quick --seed 1 --seconds 55 --trace 0
//
// The parent process runs every sample in a fresh child process of its own
// binary, so process-wide state (the apps input cache, the traveller
// tag-array pool, expvar counters) never carries from one sample into the
// next. --trace 1 alternates untraced and traced samples and reports the
// per-layer metrics instead of the end-to-end ones.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported metric; the names and units must match
// BENCHMARK.json (pinned by TestMetricsMatchBenchmarkJSON).
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"wall_s", "s"},
	{"jobs_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"alloc_mb", "MiB"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayer = []metric{
	{"ndp.construct_s", "s"},
	{"ndp.construct_mb", "MiB"},
	{"apps.setup_s", "s"},
	{"apps.execute_s", "s"},
	{"apps.tasks", "count"},
	{"ndp.run_self_s", "s"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"core.memcost_s", "s"},
	{"core.lines", "count"},
	{"core.hint_repeat_share", "ratio"},
	{"cpu.total_s", "s"},
	{"cpu.construct_s", "s"},
	{"cpu.place_s", "s"},
	{"cpu.memsys_s", "s"},
	{"cpu.dram_s", "s"},
	{"cpu.traveller_s", "s"},
	{"cpu.gc_s", "s"},
	{"fleet.self_ms", "ms"},
	{"fleet.calls_per_req", "count"},
	{"fleet.owner_share", "ratio"},
	{"fleet.dedup_joins", "count"},
	{"fleet.store_hits", "count"},
	{"fleet.retry_rounds", "count"},
	{"fleet.backend_skew", "ratio"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.queue_wait_p99_ms", "ms"},
	{"serve.run_p50_ms", "ms"},
	{"serve.run_p99_ms", "ms"},
	{"serve.runs_executed", "count"},
	{"serve.engine_s", "s"},
	{"serve.repeat_share", "ratio"},
	{"bench.memo_hit_share", "ratio"},
	{"ckpt.hit_share", "ratio"},
	{"bench.trace_overhead", "ratio"},
	{"bench.latency_samples", "count"},
}

// sample is one child process's measurement, sent to the parent as JSON.
type sample struct {
	SetupS     float64            `json:"setup_s"`     // process start to the first timed operation
	WallS      float64            `json:"wall_s"`      // the timed operation
	AllocBytes uint64             `json:"alloc_bytes"` // Go heap bytes allocated during it
	LatMS      []float64          `json:"lat_ms"`      // per run (batch) or per request (serve)
	Failed     int                `json:"failed"`
	Errors     []string           `json:"errors,omitempty"`
	Hashes     map[string]string  `json:"hashes,omitempty"` // serve: key -> result_hash
	Counts     map[string]int     `json:"counts,omitempty"` // serve: key -> requests
	Layers     map[string]float64 `json:"layers,omitempty"` // traced samples only

	rssMiB float64 // peak RSS of the child, filled in by the parent
}

func (s *sample) fail(format string, args ...any) {
	s.Failed++
	if len(s.Errors) < 8 {
		s.Errors = append(s.Errors, fmt.Sprintf(format, args...))
	}
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// sample runs in the child: set-up, then the timed operation.
	sample func(seed int64, traced bool, t0 time.Time) *sample
	// verify runs in the parent after every sample, outside any timed
	// window; it returns the failed operations it found.
	verify  func(seed int64, samples []*sample) int
	context func(seed int64) map[string]any
}

var workloads = map[string]*workload{
	"matrix-quick":   matrixQuick,
	"serve-campaign": serveCampaign,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: matrix-quick or serve-campaign")
		seed    = flag.Int64("seed", 1, "workload seed; the inputs are a pure function of it")
		seconds = flag.Float64("seconds", 55, "measurement budget in seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from traced samples")
		child   = flag.Bool("child", false, "internal: run one sample and print it as JSON")
		t0      = flag.Int64("t0", 0, "internal: the parent's clock when it started the child (Unix ns)")
		golden  = flag.Bool("golden", false, "print the reference result hashes of matrix-quick as JSON")
	)
	flag.Parse()
	if *golden {
		if err := writeGolden(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (matrix-quick, serve-campaign)", *name))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if *child {
		s := w.sample(*seed, *trace == 1, time.Unix(0, *t0))
		if err := json.NewEncoder(os.Stdout).Encode(s); err != nil {
			fatal(err)
		}
		return
	}
	if err := runParent(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1); err != nil {
		fatal(err)
	}
}

// minSamples is the fewest untraced samples a run takes, however short its
// budget.
const minSamples = 5

// runParent runs samples until the budget is spent, checks them, and
// prints the context line and the result line.
func runParent(w *workload, seed int64, budget time.Duration, traced bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var plain, tracedS []*sample
	var last time.Duration
	start := time.Now()
	for {
		n := len(plain) + len(tracedS)
		enough := len(plain) >= minSamples
		if traced {
			enough = len(plain) >= 1 && len(tracedS) >= 1
		}
		if enough && time.Since(start)+last > budget {
			break
		}
		// Traced runs alternate untraced and traced samples; the untraced
		// ones are the base of the overhead ratio.
		doTrace := traced && n%2 == 1
		t := time.Now()
		s, err := runChild(exe, w.name, seed, doTrace)
		if err != nil {
			return err
		}
		if d := time.Since(t); d > last {
			last = d
		}
		if doTrace {
			tracedS = append(tracedS, s)
		} else {
			plain = append(plain, s)
		}
	}

	all := append(append([]*sample(nil), plain...), tracedS...)
	attempted, failed := 0, 0
	for _, s := range all {
		attempted += len(s.LatMS)
		failed += s.Failed
		for _, e := range s.Errors {
			fmt.Fprintln(os.Stderr, "perfbench: FAIL", e)
		}
	}
	if w.verify != nil {
		failed += w.verify(seed, all)
	}

	lat := 0
	for _, s := range plain {
		lat += len(s.LatMS)
	}
	metrics := map[string]map[string]any{}
	put := func(m metric, v float64) { metrics[m.name] = map[string]any{"value": v, "unit": m.unit} }
	if traced {
		values := layerMetrics(plain, tracedS, lat)
		for _, m := range perLayer {
			put(m, values[m.name])
		}
	} else {
		values := endToEndMetrics(plain)
		for _, m := range endToEnd {
			put(m, values[m.name])
		}
	}

	ctx := stamp(seed)
	ctx["workload"] = w.name
	ctx["trace"] = traced
	ctx["samples"] = len(plain)
	ctx["traced_samples"] = len(tracedS)
	ctx["latency_samples"] = lat
	for k, v := range w.context(seed) {
		ctx[k] = v
	}
	line, err := json.Marshal(map[string]any{"context": ctx})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	res, err := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	if failed > 0 {
		os.Exit(1)
	}
	return nil
}

// runChild runs one sample in a fresh process and returns its measurement
// together with the child's peak RSS.
func runChild(exe, name string, seed int64, traced bool) (*sample, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	var out bytes.Buffer
	t0 := time.Now()
	cmd := exec.Command(exe, "--child", "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--trace", tr, "--t0", strconv.FormatInt(t0.UnixNano(), 10))
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	// A parent that is killed takes its running sample with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s sample: %w", name, err)
	}
	var s sample
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		return nil, fmt.Errorf("%s sample output: %w", name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &s, nil
}

// endToEndMetrics takes the median over samples of each sample's value.
// A sample's latencies are its simulations (matrix-quick) or its client
// requests (serve-campaign).
func endToEndMetrics(plain []*sample) map[string]float64 {
	var wall, jps, p50, p99, alloc, rss, setup []float64
	for _, s := range plain {
		wall = append(wall, s.WallS)
		jps = append(jps, float64(len(s.LatMS))/s.WallS)
		p50 = append(p50, quantile(s.LatMS, 0.50))
		p99 = append(p99, quantile(s.LatMS, 0.99))
		alloc = append(alloc, float64(s.AllocBytes)/(1<<20))
		rss = append(rss, s.rssMiB)
		setup = append(setup, s.SetupS)
	}
	return map[string]float64{
		"wall_s":      median(wall),
		"jobs_per_s":  median(jps),
		"p50_ms":      median(p50),
		"p99_ms":      median(p99),
		"alloc_mb":    median(alloc),
		"peak_rss_mb": median(rss),
		"setup_s":     median(setup),
	}
}

// layerMetrics takes the median of every per-layer value over the traced
// samples. Layers a workload does not pass through report 0.
func layerMetrics(plain, traced []*sample, latSamples int) map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		var vs []float64
		for _, s := range traced {
			vs = append(vs, s.Layers[m.name])
		}
		out[m.name] = median(vs)
	}
	var pw, tw []float64
	for _, s := range plain {
		pw = append(pw, s.WallS)
	}
	for _, s := range traced {
		tw = append(tw, s.WallS)
	}
	out["bench.trace_overhead"] = median(tw) / median(pw)
	out["bench.latency_samples"] = float64(latSamples)
	return out
}

// median is the middle value (mean of the middle two for even counts).
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the linearly interpolated q-quantile of v (0 for no values).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// stamp records the context every result is read in: machine size, Go
// version, the code under test and the seed.
func stamp(seed int64) map[string]any {
	ctx := map[string]any{
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     "",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				ctx["commit"] = s.Value
			case "vcs.modified":
				ctx["commit_modified"] = s.Value == "true"
			}
		}
	}
	if sum, err := sourceDigest("."); err == nil {
		ctx["source_sha256"] = sum
	}
	return ctx
}

// sourceDigest fingerprints the Go sources under root, which identifies the
// code under test where no version-control metadata is available.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// recovered turns a panic in f into an error.
func recovered(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
