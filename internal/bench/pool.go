package bench

import (
	"sort"
	"sync"
	"sync/atomic"

	"abndp/internal/apps"
	"abndp/internal/config"
	"abndp/internal/obs"
)

// Expvar gauges for the -pprof debug endpoint: how much of the planned run
// set the worker pool has finished, live.
var (
	expRunsPlanned = obs.Published("bench_runs_planned")
	expRunsDone    = obs.Published("bench_runs_done")
)

// runSpec fully identifies one timing simulation. check requests the
// invariant audit for this one run even when the Runner-wide check mode is
// off, and obsv, when non-nil, is installed on the run's System (the
// serving layer's per-request Perfetto traces; observability is
// read-only). Neither is part of the cache key: only RunOne sets them, and
// RunOne does not memoize.
type runSpec struct {
	app   string
	d     config.Design
	cfg   config.Config
	p     apps.Params
	check bool
	obsv  *obs.Observer
}

// funcSpec fully identifies one functional characterization run.
type funcSpec struct {
	app string
	p   apps.Params
}

// memo is a concurrency-safe, singleflight memoization cache: concurrent
// do calls for the same key run fn exactly once and share the result. The
// experiment tables and their plans resolve runs through it; the serving
// seam (RunOne) does not.
//
// Entries complete by closing their done channel, not via sync.Once: a
// computation that panics removes its entry before the panic unwinds, so
// waiters recompute instead of silently sharing the zero value a poisoned
// Once would have pinned under the key forever.
type memo[V any] struct {
	mu sync.Mutex
	m  map[string]*memoEntry[V]
}

// memoEntry is one key's computation. done is closed when the leading
// caller finishes; valid distinguishes a completed value from a leader
// that died in fn without producing one.
type memoEntry[V any] struct {
	done  chan struct{}
	val   V
	valid bool
}

func newMemo[V any]() *memo[V] {
	return &memo[V]{m: make(map[string]*memoEntry[V])}
}

// do returns the value for key, computing it with fn on first use. A
// concurrent do for the same key blocks until the first computation
// finishes, then shares its value.
func (c *memo[V]) do(key string, fn func() V) V {
	for {
		c.mu.Lock()
		e := c.m[key]
		if e == nil {
			e = &memoEntry[V]{done: make(chan struct{})}
			c.m[key] = e
			c.mu.Unlock()
			return c.lead(e, key, fn)
		}
		c.mu.Unlock()
		<-e.done
		if e.valid {
			return e.val
		}
		// The leader died in fn without a value (and removed the entry on
		// its way out); retry, becoming the new leader if still vacant.
	}
}

// lead runs fn as key's leading caller. On a panic the entry is removed —
// never cached invalid — before the panic unwinds to the caller.
func (c *memo[V]) lead(e *memoEntry[V], key string, fn func() V) V {
	defer func() {
		if !e.valid {
			c.mu.Lock()
			delete(c.m, key)
			c.mu.Unlock()
		}
		close(e.done)
	}()
	e.val = fn()
	e.valid = true
	return e.val
}

// cached reports whether key has been computed (or is being computed).
func (c *memo[V]) cached(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[key] != nil
}

// planAndExecute simulates the run set of the given experiments on the
// worker pool. With a single worker there is nothing to overlap, so
// planning is skipped and runs happen lazily as the tables are built,
// exactly as the serial harness always has.
func (r *Runner) planAndExecute(exps ...*experiment) {
	if r.Workers() <= 1 {
		return
	}
	r.executePlan(r.plan(exps))
}

// plan collects the run set of the experiments by building their tables
// against placeholder results, which it drops.
func (r *Runner) plan(exps []*experiment) (map[string]runSpec, map[string]funcSpec) {
	r.planned = make(map[string]runSpec)
	r.plannedF = make(map[string]funcSpec)
	r.planning = true
	for _, e := range exps {
		e.build(r)
	}
	r.planning = false
	planned, plannedF := r.planned, r.plannedF
	r.planned, r.plannedF = nil, nil
	return planned, plannedF
}

// executePlan warms the result caches with every planned run that is not
// already memoized, spreading the work over the worker pool.
func (r *Runner) executePlan(planned map[string]runSpec, plannedF map[string]funcSpec) {
	type job func()
	var jobs []job
	// Sorted key order makes the work queue (not the results, which are
	// deterministic regardless) reproducible run to run.
	keys := make([]string, 0, len(planned))
	for k := range planned {
		if !r.cache.cached(k) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		k, spec := k, planned[k]
		jobs = append(jobs, func() { r.memoRun(k, spec) })
	}
	fkeys := make([]string, 0, len(plannedF))
	for k := range plannedF {
		if !r.fcach.cached(k) {
			fkeys = append(fkeys, k)
		}
	}
	sort.Strings(fkeys)
	for _, k := range fkeys {
		k, spec := k, plannedF[k]
		jobs = append(jobs, func() { r.memoFunctional(k, spec) })
	}
	if len(jobs) == 0 {
		return
	}
	expRunsPlanned.Add(int64(len(jobs)))
	r.progressf("simulating %d runs on %d workers\n", len(jobs), r.Workers())
	var done atomic.Int64

	workers := r.Workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	queue := make(chan job)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for j := range queue {
				j()
				expRunsDone.Add(1)
				if d := done.Add(1); r.progress != nil && (d%8 == 0 || d == int64(len(jobs))) {
					r.progressf("  sim %d/%d\n", d, len(jobs))
				}
			}
		}()
	}
	for _, j := range jobs {
		queue <- j
	}
	close(queue)
	wg.Wait()
}
