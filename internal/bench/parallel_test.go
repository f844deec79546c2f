package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"abndp/internal/config"
	"abndp/internal/ndp"
)

// runExperiments renders the named experiments (or the full suite when
// names is nil) on a fresh quick Runner with the given worker count,
// returning the rendered output and a digest of every cached result.
func runExperiments(t *testing.T, workers int, names []string) (string, map[string]string) {
	t.Helper()
	r, buf := quickRunner()
	r.SetWorkers(workers)
	if names == nil {
		r.RunAll()
	} else {
		var exps []*experiment
		for _, n := range names {
			e, err := lookup(n)
			if err != nil {
				t.Fatal(err)
			}
			exps = append(exps, e)
		}
		r.planAndExecute(exps...)
		for _, e := range exps {
			r.render(buf, e)
		}
	}
	digests := make(map[string]string)
	r.cache.mu.Lock()
	for k, e := range r.cache.m {
		digests[k] = resultDigest(e.val)
	}
	r.cache.mu.Unlock()
	return buf.String(), digests
}

func resultDigest(res *ndp.Result) string {
	return fmt.Sprintf("mk=%d|t=%d|s=%d|h=%d|e=%.6e",
		res.Makespan, res.Tasks, res.Steps, res.InterHops, res.Energy.Total())
}

// TestParallelMatchesSerial runs the same experiment grid once serially
// and once on a 4-wide worker pool and requires byte-identical tables and
// identical per-run result digests — the harness's core determinism
// contract. A second parallel run must also match the first.
func TestParallelMatchesSerial(t *testing.T) {
	names := []string{"fig2", "fig11", "ablsteal", "resilience"}
	if !testing.Short() {
		names = nil // the full quick-mode suite
	}

	serialOut, serialDig := runExperiments(t, 1, names)
	parOut, parDig := runExperiments(t, 4, names)
	if serialOut != parOut {
		t.Fatalf("parallel output differs from serial.\nserial:\n%s\nparallel:\n%s", serialOut, parOut)
	}
	if len(parDig) != len(serialDig) {
		t.Fatalf("parallel computed %d runs, serial %d", len(parDig), len(serialDig))
	}
	for k, want := range serialDig {
		if got, ok := parDig[k]; !ok || got != want {
			t.Fatalf("run %q: parallel digest %q, serial %q", k, got, want)
		}
	}

	parOut2, parDig2 := runExperiments(t, 4, names)
	if parOut2 != parOut {
		t.Fatal("two parallel runs produced different output")
	}
	for k, want := range parDig {
		if parDig2[k] != want {
			t.Fatalf("run %q: repeated parallel digests differ", k)
		}
	}
	if len(serialOut) == 0 {
		t.Fatal("experiments rendered no output")
	}
}

// TestMemoSingleflight hammers one key from many goroutines and requires
// exactly one computation, shared by every caller.
func TestMemoSingleflight(t *testing.T) {
	m := newMemo[*ndp.Result]()
	var calls int32
	var wg sync.WaitGroup
	out := make([]*ndp.Result, 16)
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = m.do("k", func() *ndp.Result {
				atomic.AddInt32(&calls, 1)
				return &ndp.Result{Makespan: 42}
			})
		}(i)
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	for i, r := range out {
		if r != out[0] {
			t.Fatalf("caller %d got a different pointer", i)
		}
	}
	if !m.cached("k") || m.cached("other") {
		t.Fatal("cached() misreports")
	}
}

// TestRunKeyDistinguishesConfigs pins the satellite requirement directly:
// distinct designs, config mutations, and workload params must never share
// a cache key, and identical inputs must.
func TestRunKeyDistinguishesConfigs(t *testing.T) {
	base := config.Default()
	p := benchSizes["pr"]
	ref := key("pr", config.DesignO, base, p)

	if key("pr", config.DesignO, base, p) != ref {
		t.Fatal("identical runs keyed differently")
	}
	if key("bfs", config.DesignO, base, p) == ref {
		t.Fatal("apps collided")
	}
	if key("pr", config.DesignB, base, p) == ref {
		t.Fatal("designs collided")
	}
	mut := base
	mut.CacheRatio = 32
	if key("pr", config.DesignO, mut, p) == ref {
		t.Fatal("config mutation collided")
	}
	p2 := p
	p2.PerfectHints = true
	if key("pr", config.DesignO, base, p2) == ref {
		t.Fatal("params mutation collided")
	}
	p3 := p
	p3.GraphPath = "x.mtx"
	if key("pr", config.DesignO, base, p3) == ref {
		t.Fatal("graph path collided")
	}
}

// TestPlanningCollectsWithoutSimulating plans an experiment and checks
// that specs are recorded, nothing is cached, and no placeholder leaks into
// the memo.
func TestPlanningCollectsWithoutSimulating(t *testing.T) {
	r, _ := quickRunner()
	e, err := lookup("fig8")
	if err != nil {
		t.Fatal(err)
	}
	planned, _ := r.plan([]*experiment{e})

	// Figure 8: figureApps x NDPDesigns, deduplicated (B appears both as
	// base and as a column).
	want := len(figureApps) * len(config.NDPDesigns)
	if len(planned) != want {
		t.Fatalf("planned %d runs, want %d", len(planned), want)
	}
	r.cache.mu.Lock()
	n := len(r.cache.m)
	r.cache.mu.Unlock()
	if n != 0 {
		t.Fatalf("planning cached %d results; placeholders must not be cached", n)
	}
	if r.planning || r.planned != nil {
		t.Fatal("planning state outlived the plan")
	}
}
