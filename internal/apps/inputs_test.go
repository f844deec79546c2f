package apps

import (
	"fmt"
	"sync"
	"testing"

	"abndp/internal/config"
	"abndp/internal/graph"
	"abndp/internal/ndp"
)

// TestInputCacheBitIdenticalGraphs: a cached graph must be bit-identical
// to a freshly generated one — the property that makes enabling the cache
// invisible to every result hash.
func TestInputCacheBitIdenticalGraphs(t *testing.T) {
	EnableInputCache(true)
	defer EnableInputCache(false)

	cached := inputRMAT(8, 6, 3)
	again := inputRMAT(8, 6, 3)
	if cached != again {
		t.Fatal("second lookup did not return the cached instance")
	}
	fresh := graph.RMAT(8, 6, 3)
	if !sameCSR(cached, fresh) {
		t.Fatal("cached R-MAT differs from a fresh generation")
	}
	w := inputRMATWeighted(8, 6, 3, 8)
	if sameCSR(cached, w) {
		t.Fatal("weighted and unweighted signatures collided")
	}
	if hits, misses := InputCacheStats(); hits == 0 || misses == 0 {
		t.Fatalf("stats hits=%d misses=%d", hits, misses)
	}
}

func TestInputCacheDisabledGeneratesFresh(t *testing.T) {
	EnableInputCache(false)
	a := inputRMAT(8, 6, 3)
	b := inputRMAT(8, 6, 3)
	if a == b {
		t.Fatal("cache off must generate fresh instances")
	}
	if !sameCSR(a, b) {
		t.Fatal("generator is not deterministic")
	}
}

func TestInputCacheEvictsOldest(t *testing.T) {
	EnableInputCache(true)
	defer EnableInputCache(false)
	first := inputRMAT(6, 4, 1)
	for i := 0; i < inputCacheCap; i++ { // push cap+ distinct keys
		inputRMAT(6, 4, int64(100+i))
	}
	if again := inputRMAT(6, 4, 1); again == first {
		t.Fatal("oldest entry survived past the cap")
	}
	inputCache.mu.Lock()
	n := len(inputCache.entries)
	inputCache.mu.Unlock()
	if n > inputCacheCap {
		t.Fatalf("cache holds %d entries, cap %d", n, inputCacheCap)
	}
}

func TestInputCacheConcurrentSetupSafe(t *testing.T) {
	EnableInputCache(true)
	defer EnableInputCache(false)
	var wg sync.WaitGroup
	got := make([]*graph.CSR, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = inputRMAT(9, 6, 7)
		}(i)
	}
	wg.Wait()
	for _, g := range got[1:] {
		if !sameCSR(g, got[0]) {
			t.Fatal("concurrent lookups returned differing graphs")
		}
	}
}

// TestInputCacheAppsLeaveInputsUntouched: every bench.Runner shares one
// process-wide input cache across runs, and check mode's plain rerun reads
// the same cached graphs as the audited run, so it cannot see an app that
// writes into one. Each app that reads cached inputs runs twice on the
// cache and must hash like a run with the cache off; afterwards every
// cached graph, derived rev| and sym| graphs included, must still equal a
// fresh generation.
func TestInputCacheAppsLeaveInputsUntouched(t *testing.T) {
	cachedApps := []string{"pr", "bfs", "sssp", "astar", "gcn", "spmv", "cc"}
	p := testParams()
	run := func(name string) uint64 {
		a, err := New(name, p)
		if err != nil {
			t.Fatal(err)
		}
		return ndp.ResultHash(ndp.NewSystem(testCfg(), config.DesignO).Run(a))
	}

	EnableInputCache(false)
	want := make(map[string]uint64, len(cachedApps))
	for _, name := range cachedApps {
		want[name] = run(name)
	}

	EnableInputCache(true)
	defer EnableInputCache(false)
	for pass := 1; pass <= 2; pass++ {
		for _, name := range cachedApps {
			if got := run(name); got != want[name] {
				t.Fatalf("%s pass %d on the input cache: hash %016x, cache off %016x",
					name, pass, got, want[name])
			}
		}
	}

	sig := fmt.Sprintf("%d|%d|%d", p.Scale, p.Degree, p.Seed)
	rmat := func() *graph.CSR { return graph.RMAT(p.Scale, p.Degree, p.Seed) }
	rmatw := func(maxW float32) func() *graph.CSR {
		return func() *graph.CSR { return graph.RMATWeighted(p.Scale, p.Degree, p.Seed, maxW) }
	}
	side := 1<<(p.Scale/2) - 1
	fresh := map[string]func() *graph.CSR{
		"rmat|" + sig:         rmat,
		"rev|rmat|" + sig:     func() *graph.CSR { return graph.Reverse(rmat()) },
		"sym|rmat|" + sig:     func() *graph.CSR { return symmetrize(rmat()) },
		"rmatw|" + sig + "|8": rmatw(8), // sssp
		"rmatw|" + sig + "|4": rmatw(4), // spmv
		fmt.Sprintf("grid|%d|%d|%d|8", side, side, p.Seed): func() *graph.CSR {
			return graph.Grid(side, side, p.Seed, 8)
		},
	}
	inputCache.mu.Lock()
	cached := make(map[string]*graph.CSR, len(inputCache.entries))
	for k, g := range inputCache.entries {
		cached[k] = g
	}
	inputCache.mu.Unlock()
	for k := range cached {
		if fresh[k] == nil {
			t.Errorf("cached input %q has no fresh generator in this test", k)
		}
	}
	for k, gen := range fresh {
		g := cached[k]
		if g == nil {
			t.Errorf("input %q was never cached", k)
			continue
		}
		if !sameCSR(g, gen()) {
			t.Errorf("cached input %q differs from a fresh generation: an app wrote into it", k)
		}
	}
}

func sameCSR(a, b *graph.CSR) bool {
	if a.N != b.N || len(a.RowPtr) != len(b.RowPtr) || len(a.Col) != len(b.Col) ||
		(a.W == nil) != (b.W == nil) || len(a.W) != len(b.W) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.Col {
		if a.Col[i] != b.Col[i] {
			return false
		}
	}
	for i := range a.W {
		if a.W[i] != b.W[i] {
			return false
		}
	}
	return true
}
