package apps

import (
	"fmt"
	"sync"

	"abndp/internal/graph"
)

// Input caching for the checkpoint/delta re-simulation path (docs/PERF.md):
// generated workload inputs (R-MAT graphs, weighted matrices, grids, and
// their derived forms) are pure functions of their generator signature, so
// sweep points sharing workload parameters can share one immutable instance
// instead of regenerating per run. Off by default; every bench.Runner
// switches it on via EnableInputCache. Sharing is only sound while every
// consumer treats the graphs as read-only, which the apps in this package
// do after Setup (EnsureWeights no-ops on already-weighted graphs; Reverse
// and symmetrize build fresh derived graphs, cached under their own keys).
//
// Correctness: a cached graph is bit-identical to a regenerated one (same
// deterministic generator, same signature), so enabling the cache never
// changes simulation output — enforced by the hash-parity tests, and by
// TestInputCacheAppsLeaveInputsUntouched for apps writing into a shared
// graph.
var inputCache struct {
	mu      sync.Mutex
	on      bool
	entries map[string]*graph.CSR
	order   []string // insertion order for bounded eviction
	hits    int64
	misses  int64
}

// inputCacheCap bounds the cache to this many graphs. Bench campaigns cycle
// through a handful of workload signatures; FIFO eviction of the oldest
// entry is enough to keep the footprint flat without LRU bookkeeping.
const inputCacheCap = 32

// EnableInputCache switches the process-wide input cache on or off.
// Switching off also drops every cached graph.
func EnableInputCache(on bool) {
	c := &inputCache
	c.mu.Lock()
	defer c.mu.Unlock()
	c.on = on
	if !on {
		c.entries = nil
		c.order = nil
	}
}

// InputCacheStats returns the cumulative hit/miss counters.
func InputCacheStats() (hits, misses int64) {
	c := &inputCache
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// cachedInput returns the graph for key, generating (and caching, when the
// cache is on) via gen. Concurrent callers may race on a cold key and both
// generate; the duplicate insert is dropped, and either instance is
// bit-identical, so the race is benign.
func cachedInput(key string, gen func() *graph.CSR) *graph.CSR {
	c := &inputCache
	c.mu.Lock()
	if !c.on {
		c.mu.Unlock()
		return gen()
	}
	if g, ok := c.entries[key]; ok {
		c.hits++
		c.mu.Unlock()
		return g
	}
	c.misses++
	c.mu.Unlock()

	g := gen() // outside the lock: generation is the expensive part

	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.on {
		return g
	}
	if c.entries == nil {
		c.entries = make(map[string]*graph.CSR)
	}
	if _, ok := c.entries[key]; !ok {
		if len(c.order) >= inputCacheCap {
			delete(c.entries, c.order[0])
			c.order = c.order[1:]
		}
		c.entries[key] = g
		c.order = append(c.order, key)
	}
	return g
}

// Generator wrappers used by the app Setups. Each key is the full
// generator signature — anything that changes the output bits.

func inputRMAT(scale, degree int, seed int64) *graph.CSR {
	return cachedInput(fmt.Sprintf("rmat|%d|%d|%d", scale, degree, seed),
		func() *graph.CSR { return graph.RMAT(scale, degree, seed) })
}

func inputRMATWeighted(scale, degree int, seed int64, maxW float32) *graph.CSR {
	return cachedInput(fmt.Sprintf("rmatw|%d|%d|%d|%g", scale, degree, seed, maxW),
		func() *graph.CSR { return graph.RMATWeighted(scale, degree, seed, maxW) })
}

func inputGrid(w, h int, seed int64, maxW float32) *graph.CSR {
	return cachedInput(fmt.Sprintf("grid|%d|%d|%d|%g", w, h, seed, maxW),
		func() *graph.CSR { return graph.Grid(w, h, seed, maxW) })
}

// inputDerived caches a derived graph (reverse, symmetric closure) under
// its own key. Only call with keys derived from generator signatures —
// loaded inputs (Params.GraphPath) have no stable signature and must not
// go through the cache.
func inputDerived(key string, gen func() *graph.CSR) *graph.CSR {
	return cachedInput(key, gen)
}
