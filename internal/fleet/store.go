package fleet

import (
	"container/list"
	"sync"

	"abndp/internal/serve"
)

// resultStore is the fleet-wide shared result store: a bounded LRU of
// completed results keyed by serve.RouteKey. Every completion the proxy
// observes is recorded here, so a warm result *anywhere* in the fleet —
// including on a backend that has since died — keeps serving without
// recomputation. This is the CODA co-location argument lifted one level
// up: the paper places a task where its data's caches are warm; the
// fleet additionally keeps the *result* where requests can reach it,
// not only where it was computed.
//
// Two paths consume the store:
//
//   - failover: the owning backend dies after completing a job; the poll
//     that would have re-dispatched (and recomputed from cycle 0) is
//     answered from the store instead, hash-verified against the job's
//     recorded result hash, and the memo is replicated to a live backend
//     via POST /v1/runs/{id}/adopt so the fleet re-warms;
//   - cold-owner submit: a submission whose terminal fleet job has been
//     evicted (or that arrives at a fresh proxy ring assignment) hits
//     the store by route key and is answered — and adopted onto the ring
//     owner — without costing a simulation.
//
// The store holds rendered statuses (hash + summary), not raw engine
// results: a few hundred bytes per entry, so thousands of entries cost
// less than one simulation's working set.
type resultStore struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element // route key -> element whose Value is *storeEntry
	lru     *list.List               // front = most recently used

	evictions int64
}

// storeEntry is one completed result: the integrity hash, the backend
// that computed it (attribution), and a terminal "done" status snapshot.
type storeEntry struct {
	key     string
	hash    string
	backend string
	status  serve.RunStatus // terminal done status; Result deep-copied on Get
}

// newResultStore builds a store holding at most cap entries; cap <= 0
// disables the store entirely (Get always misses, Put is a no-op).
func newResultStore(cap int) *resultStore {
	return &resultStore{
		cap:     cap,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// Put records key's completed status. The status is copied (including
// the Result summary), so later mutation of st by the caller cannot
// alias the stored entry.
func (s *resultStore) Put(key string, st *serve.RunStatus, backend string) {
	if s == nil || s.cap <= 0 || st == nil || st.Status != serve.StateDone || st.ResultHash == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		e := el.Value.(*storeEntry)
		e.hash, e.backend, e.status = st.ResultHash, backend, copyStatus(st)
		s.lru.MoveToFront(el)
		return
	}
	e := &storeEntry{key: key, hash: st.ResultHash, backend: backend, status: copyStatus(st)}
	s.entries[key] = s.lru.PushFront(e)
	for s.lru.Len() > s.cap {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.entries, oldest.Value.(*storeEntry).key)
		s.evictions++
		fleetStoreEvictions.Add(1)
	}
}

// Get returns a fresh copy of key's stored status and its integrity
// hash, refreshing recency. The copy is the caller's to rewrite.
func (s *resultStore) Get(key string) (*serve.RunStatus, string, string, bool) {
	if s == nil || s.cap <= 0 {
		return nil, "", "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return nil, "", "", false
	}
	s.lru.MoveToFront(el)
	e := el.Value.(*storeEntry)
	st := copyStatus(&e.status)
	return &st, e.hash, e.backend, true
}

// Len reports the live entry count.
func (s *resultStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Evictions reports how many entries the cap has pushed out.
func (s *resultStore) Evictions() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictions
}

// copyStatus deep-copies a RunStatus so stored entries never alias the
// response the proxy rewrites (ID, Backend, Failovers, Dedup).
func copyStatus(st *serve.RunStatus) serve.RunStatus {
	out := *st
	if st.Result != nil {
		res := *st.Result
		out.Result = &res
	}
	return out
}
