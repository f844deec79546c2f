// Package ckpt implements the cross-run checkpoint store of the
// checkpoint/delta re-simulation path (docs/PERF.md): a bounded,
// concurrency-safe store of knob-independent simulation artifacts, keyed
// by the configuration *prefix key* (config.PrefixKey — the config minus
// late-binding scheduler/steal/fault knobs).
//
// It holds one artifact kind: static placement-cost vectors, costmem(hint,
// u) for every unit u, the hot kernel of hybrid/lowest-distance task
// placement. A vector is a pure function of (hint lines, topology, camp
// mapping) — everything the prefix key pins — so sweep points that vary
// only scheduler knobs reuse it bit-for-bit instead of recomputing it per
// placement. Workload inputs are not stored here: the FIFO input cache in
// internal/apps (inputs.go) shares them.
//
// Correctness does not rest on hashing: vector entries store the hint's
// full line list and every lookup compares it, so a hash collision is a
// miss (wasted work), never a wrong value. Entries are only ever written
// with values a cold run would have computed, so a store hit cannot change
// any simulation output — the parity tests in the root package and
// internal/ndp enforce byte-identical result hashes.
package ckpt

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"abndp/internal/mem"
)

// DefaultCapBytes bounds the store's entry payload by default. It is the
// smallest cap of a full-scale sweep over 16, 32, 64 and 512 MiB
// (docs/PERF.md, "Sizing the store") at which full-scale fig17, the
// largest late-binding sweep, rejects no insert (16 MiB rejects 40–47k)
// and the serve-campaign benchmark's store evicts no shard. The cap counts
// entry payload only, and peak RSS grows by roughly twice the cap: on a
// full abndpbench, the median peak RSS is 1.18 GB above the input cache
// alone at 512 MiB and 77 MB above it at 32 MiB.
const DefaultCapBytes = 32 << 20

// Store is the top-level checkpoint store: a set of shards, one per
// prefix-key string, with shard-granularity LRU eviction when the
// approximate byte footprint exceeds the cap. Safe for concurrent use.
type Store struct {
	mu        sync.Mutex
	cap       int64
	bytes     int64
	clock     int64
	evictions int64
	// retired counters: eviction folds a victim shard's tallies here so
	// Stats stays cumulative across evictions.
	retHits, retMisses, retInserts, retRejects int64

	shards map[string]*Shard
}

// NewStore builds a store bounded to roughly capBytes of entry payload
// (capBytes <= 0 selects DefaultCapBytes).
func NewStore(capBytes int64) *Store {
	if capBytes <= 0 {
		capBytes = DefaultCapBytes
	}
	return &Store{cap: capBytes, shards: make(map[string]*Shard)}
}

// Shard returns (creating on first use) the shard for one prefix key.
// Callers fold anything else the artifact values depend on into the key —
// the runtime uses ndp.System.CheckpointKey, "app|design|PrefixKey", since
// camp-awareness follows the design and hints follow the app.
func (s *Store) Shard(key string) *Shard {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock++
	sh := s.shards[key]
	if sh == nil {
		sh = &Shard{store: s, key: key, vecs: make(map[uint64]*vecEntry)}
		s.shards[key] = sh
	}
	sh.lastUse = s.clock
	return sh
}

// charge accounts n payload bytes against the cap, evicting
// least-recently-used shards other than keep until under. It reports
// whether the bytes were admitted; false means the caller's shard alone
// exceeds the cap and the insert must be rejected.
func (s *Store) charge(keep *Shard, n int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.bytes+n > s.cap {
		victim := (*Shard)(nil)
		for _, sh := range s.shards {
			if sh == keep {
				continue
			}
			if victim == nil || sh.lastUse < victim.lastUse {
				victim = sh
			}
		}
		if victim == nil {
			return false // only the live shard left: reject, don't thrash it
		}
		victim.mu.Lock()
		s.bytes -= victim.bytes
		victim.evicted = true
		victim.vecs = make(map[uint64]*vecEntry)
		victim.bytes = 0
		victim.mu.Unlock()
		s.retHits += victim.hits.Load()
		s.retMisses += victim.misses.Load()
		s.retInserts += victim.inserts.Load()
		s.retRejects += victim.rejects.Load()
		delete(s.shards, victim.key)
		s.evictions++
	}
	s.bytes += n
	return true
}

// uncharge returns bytes reserved by charge for an insert that was
// abandoned (duplicate or post-eviction).
func (s *Store) uncharge(n int64) {
	s.mu.Lock()
	s.bytes -= n
	s.mu.Unlock()
}

// Stats is a point-in-time summary of store effectiveness.
type Stats struct {
	Shards    int   `json:"shards"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
	CapBytes  int64 `json:"cap_bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Inserts   int64 `json:"inserts"`
	Rejects   int64 `json:"rejects"`
	Evictions int64 `json:"evictions"`
}

// Stats sums the per-shard counters plus the tallies of evicted shards.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Shards: len(s.shards), Bytes: s.bytes, CapBytes: s.cap, Evictions: s.evictions,
		Hits: s.retHits, Misses: s.retMisses, Inserts: s.retInserts, Rejects: s.retRejects}
	for _, sh := range s.shards {
		sh.mu.RLock()
		st.Entries += int64(len(sh.vecs))
		sh.mu.RUnlock()
		st.Hits += sh.hits.Load()
		st.Misses += sh.misses.Load()
		st.Inserts += sh.inserts.Load()
		st.Rejects += sh.rejects.Load()
	}
	return st
}

// EntryInfo describes one shard for inspection (abndpinspect checkpoints).
type EntryInfo struct {
	Key     string `json:"key"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
	Hits    int64  `json:"hits"`
	Misses  int64  `json:"misses"`
	LastUse int64  `json:"last_use"` // store-clock ordinal; higher = more recent
}

// Entries lists the live shards, most recently used first.
func (s *Store) Entries() []EntryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]EntryInfo, 0, len(s.shards))
	for _, sh := range s.shards {
		sh.mu.RLock()
		n, b := len(sh.vecs), sh.bytes
		sh.mu.RUnlock()
		out = append(out, EntryInfo{
			Key: sh.key, Entries: n, Bytes: b,
			Hits: sh.hits.Load(), Misses: sh.misses.Load(), LastUse: sh.lastUse,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LastUse > out[j].LastUse })
	return out
}

// Shard is one prefix key's artifact set. Reads take a read lock; the
// read-mostly access pattern (a warm sweep is almost all hits) keeps
// contention negligible even with many concurrent runs sharing a shard.
type Shard struct {
	store   *Store
	key     string
	lastUse int64 // guarded by store.mu

	mu      sync.RWMutex
	vecs    map[uint64]*vecEntry
	bytes   int64
	evicted bool

	hits, misses, inserts, rejects atomic.Int64
}

// vecEntry is one hint's placement-cost vector; next chains hash
// collisions (distinct hints, equal hash).
type vecEntry struct {
	lines []mem.Line
	vec   []float64
	next  *vecEntry
}

// Key returns the shard's prefix key.
func (sh *Shard) Key() string { return sh.key }

// HashLines fingerprints a hint's line list (FNV-1a over the 64-bit line
// values). Collisions are safe — MemVec compares the full list — so the
// hash only needs to be cheap and well-distributed.
func HashLines(lines []mem.Line) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, l := range lines {
		v := uint64(l)
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	return h
}

// MemVec returns the stored cost vector for a hint with the given hash and
// line list, or nil on a miss. The caller must not modify the returned
// slice (it is shared across runs).
func (sh *Shard) MemVec(hash uint64, lines []mem.Line) []float64 {
	sh.mu.RLock()
	e := sh.vecs[hash]
	for e != nil && !sameLines(e.lines, lines) {
		e = e.next
	}
	sh.mu.RUnlock()
	if e == nil {
		sh.misses.Add(1)
		return nil
	}
	sh.hits.Add(1)
	return e.vec
}

// PutMemVec stores copies of a hint's line list and cost vector; the
// caller keeps both slices and may reuse them at once. The copies are made
// only for an entry the shard stores, so an insert the cap rejects
// allocates nothing. Duplicate inserts (two workers racing on the same
// hint) keep the first entry — both hold identical bits, so which one wins
// is unobservable.
func (sh *Shard) PutMemVec(hash uint64, lines []mem.Line, vec []float64) {
	sh.mu.RLock()
	gone := sh.evicted
	sh.mu.RUnlock()
	if gone {
		return // stale handle: don't let a dead shard's insert evict live ones
	}
	n := int64(len(lines)*8 + len(vec)*8 + 64)
	if !sh.store.charge(sh, n) {
		sh.rejects.Add(1)
		return
	}
	sh.mu.Lock()
	if sh.evicted {
		sh.mu.Unlock()
		sh.store.uncharge(n)
		return
	}
	for e := sh.vecs[hash]; e != nil; e = e.next {
		if sameLines(e.lines, lines) {
			sh.mu.Unlock()
			sh.store.uncharge(n)
			return
		}
	}
	sh.vecs[hash] = &vecEntry{lines: slices.Clone(lines), vec: slices.Clone(vec), next: sh.vecs[hash]}
	sh.bytes += n
	sh.mu.Unlock()
	sh.inserts.Add(1)
}

func sameLines(a, b []mem.Line) bool {
	if len(a) != len(b) {
		return false
	}
	for i, l := range a {
		if b[i] != l {
			return false
		}
	}
	return true
}
