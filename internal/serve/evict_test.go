package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// keepAtMost lowers s's finished-job bound.
func keepAtMost(s *Server, n int) {
	s.mu.Lock()
	s.keep = n
	s.mu.Unlock()
}

// tableSizes reads the sizes of s's job table and dedup index.
func tableSizes(s *Server) (jobs, byKey int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs), len(s.byKey)
}

// smallJob is a distinct small job per seed.
func smallJob(seed int) string {
	return fmt.Sprintf(`{"app":"pr","design":"O","params":{"scale":5,"degree":3,"seed":%d}}`, seed)
}

// TestFinishedJobsBounded churns distinct jobs through a backend whose
// finished-job bound is lowered, in batches, while other goroutines poll
// every run ID the churn hands out. Its job table and dedup index never
// hold more than the bound plus the batch in flight, a poll of an evicted
// ID answers 404, and a resubmission of an evicted key runs again to the
// same hash.
func TestFinishedJobsBounded(t *testing.T) {
	const keep, batch, batches = 4, 3, 8
	s, ts := newTestServer(t, Config{Workers: 2})
	keepAtMost(s, keep)

	var done atomic.Bool
	var polls sync.WaitGroup
	defer func() { done.Store(true); polls.Wait() }()
	for p := 0; p < 2; p++ {
		polls.Add(1)
		go func(p int) {
			defer polls.Done()
			for i := p; !done.Load(); i++ {
				id := fmt.Sprintf("run-%06d", 1+i%(batch*batches))
				resp, err := http.Get(ts.URL + "/v1/runs/" + id)
				if err != nil {
					t.Errorf("poll %s: %v", id, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
					t.Errorf("poll %s: status %d, want 200 or 404", id, resp.StatusCode)
					return
				}
				if jobs, byKey := tableSizes(s); jobs > keep+batch || byKey > keep+batch {
					t.Errorf("%d jobs, %d keys kept, want at most %d each", jobs, byKey, keep+batch)
					return
				}
			}
		}(p)
	}

	var first *RunStatus
	for b := 0; b < batches; b++ {
		ids := make([]string, batch)
		for i := range ids {
			st, resp := post(t, ts, smallJob(1+b*batch+i))
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: status %d (%s)", resp.StatusCode, st.Error)
			}
			ids[i] = st.ID
		}
		for _, id := range ids {
			st := await(t, ts, id)
			if st.Status != StateDone {
				t.Fatalf("job %s finished %q (%s)", id, st.Status, st.Error)
			}
			if first == nil {
				first = st
			}
		}
	}
	if jobs, byKey := tableSizes(s); jobs != keep || byKey != keep {
		t.Fatalf("after the churn: %d jobs, %d keys kept, want %d each", jobs, byKey, keep)
	}

	if _, code := get(t, ts, first.ID, ""); code != http.StatusNotFound {
		t.Fatalf("poll of evicted %s: status %d, want 404", first.ID, code)
	}
	again, resp := post(t, ts, smallJob(1))
	if resp.StatusCode != http.StatusAccepted || again.Dedup || again.ID == first.ID {
		t.Fatalf("resubmission of an evicted key: status %d %+v, want a new job", resp.StatusCode, again)
	}
	if again = await(t, ts, again.ID); again.Status != StateDone || again.ResultHash != first.ResultHash {
		t.Fatalf("rerun of an evicted key: %s hash %q, want done with %q", again.Status, again.ResultHash, first.ResultHash)
	}
	if n := s.Runner().RunsExecuted(); n != batch*batches+1 {
		t.Fatalf("%d simulations for %d jobs", n, batch*batches+1)
	}
}

// TestSoakHeapBounded is a backend's memory soak: one worker runs ten
// times its lowered finished-job bound in distinct small jobs. Heap in
// use after GC, less the checkpoint store's payload (which has its own
// byte cap), must grow by less than heapBudget over the last nine tenths
// of them. A backend that kept every run's result grew about 33 KiB per
// distinct job, several times the budget over these 144 jobs.
func TestSoakHeapBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations swamp the heap budget")
	}
	const keep, warm, jobs = 16, 16, 160
	const heapBudget = 1 << 20
	s, ts := newTestServer(t, Config{Workers: 1})
	keepAtMost(s, keep)
	store := s.Runner().Store()
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second cycle empties the sync.Pool victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapInuse) - store.Stats().Bytes
	}

	var before int64
	for i := 1; i <= jobs; i++ {
		st, resp := post(t, ts, smallJob(100000+i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d (%s)", i, resp.StatusCode, st.Error)
		}
		if st = await(t, ts, st.ID); st.Status != StateDone {
			t.Fatalf("job %d finished %q (%s)", i, st.Status, st.Error)
		}
		if i == warm {
			before = heap()
		}
	}
	after := heap()
	t.Logf("heap in use less store payload: %.2f MiB after %d jobs, %.2f MiB after %d",
		float64(before)/(1<<20), warm, float64(after)/(1<<20), jobs)
	if grew := after - before; grew > heapBudget {
		t.Fatalf("heap grew %d KiB over %d distinct jobs, budget %d KiB", grew>>10, jobs-warm, heapBudget>>10)
	}
	if n, _ := tableSizes(s); n != keep {
		t.Fatalf("%d jobs kept, want %d", n, keep)
	}
}
