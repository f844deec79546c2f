// Package ckpt implements the cross-run checkpoint store of the
// checkpoint/delta re-simulation path (docs/PERF.md): a bounded,
// concurrency-safe store of knob-independent simulation artifacts, keyed
// by the configuration *prefix key* (config.PrefixKey — the config minus
// late-binding scheduler/steal/fault knobs).
//
// It holds one artifact kind: a hint's placement cost, costmem(hint, u)
// for every unit u in the kernel's stack form (core.StackForm), the hot
// kernel of hybrid/lowest-distance task placement. A form is a pure
// function of (hint lines, topology, camp mapping) — everything the prefix
// key pins — so sweep points that vary only scheduler knobs reuse it
// bit-for-bit instead of recomputing it per placement. Workload inputs are
// not stored here: the FIFO input cache in internal/apps (inputs.go)
// shares them.
//
// The store does not read the forms: to it each is a blob of words, kept
// with the hint's line list in one pointer-free payload per entry, and a
// hit returns the blob in place. Correctness does not rest on hashing:
// every lookup compares the full line list, so a hash collision is a miss
// (wasted work), never a wrong value. Entries are only ever written with
// values a cold run would have computed, so a store hit cannot change any
// simulation output — the parity tests in the root package and
// internal/ndp enforce byte-identical result hashes.
package ckpt

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"abndp/internal/mem"
)

// DefaultCapBytes bounds the store's entries by default. It is the
// smallest of the caps swept (16, 32, 64 and 512 MiB; docs/PERF.md,
// "Sizing the store") at which full-scale fig17, the largest late-binding
// sweep, rejects no insert and the serve-campaign benchmark's store
// evicts no shard. The cap counts each entry's payload words plus
// entryOverhead: about 640 bytes for the stack form of a 10-line
// camp-aware hint whose lines spread over the machine (35 listed units),
// and 415 bytes on average over the example campaign's 80 runs, which
// fill 3.4 MiB. At 16 MiB a full-scale fig17 ends with 8.1 MiB.
const DefaultCapBytes = 16 << 20

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
		sh = &Shard{store: s, key: key, entries: make(map[uint64][]uint64)}
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
		victim.entries = make(map[uint64][]uint64)
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
		st.Entries += int64(len(sh.entries))
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
		n, b := len(sh.entries), sh.bytes
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
	entries map[uint64][]uint64 // see Put
	bytes   int64
	evicted bool

	hits, misses, inserts, rejects atomic.Int64
}

// entryOverhead is what the store charges an entry beyond its payload
// words. It stands for the entry's map slot, an 8-byte key and a 24-byte
// slice header, which takes 38 to 75 bytes at the map's load, and covers
// the payload's rounding up to its allocation size class for payloads up
// to 768 bytes.
const entryOverhead = 64

// entryBytes is what the store charges an entry whose payload is n words.
func entryBytes(n int) int64 { return int64(n)*8 + entryOverhead }

// Key returns the shard's prefix key.
func (sh *Shard) Key() string { return sh.key }

// hashLines fingerprints a hint's line list, one multiply per line: each
// step rotates the running hash, mixes the 64-bit line in and multiplies
// by an odd constant (the FxHash step). Every step is a bijection of the
// running hash and of the line, so two lists of one length that differ in
// one line never collide. Collisions are safe anyway — a lookup compares
// the full list — so the hash only needs to be cheap and to spread lists
// over keys; the shard's map hashes the key again.
func hashLines(lines []mem.Line) uint64 {
	h := uint64(14695981039346656037) // any nonzero start: {} and {0} differ
	for _, l := range lines {
		h = (bits.RotateLeft64(h, 5) ^ uint64(l)) * 0x517cc1b727220a95
	}
	return h
}

// Get returns the blob stored for a hint's line list, or nil on a miss.
// The blob is the stored entry itself: the caller must not modify it (it
// is shared across runs).
func (sh *Shard) Get(lines []mem.Line) []uint64 { return sh.get(hashLines(lines), lines) }

func (sh *Shard) get(h uint64, lines []mem.Line) []uint64 {
	sh.mu.RLock()
	p, _ := sh.find(h, lines)
	sh.mu.RUnlock()
	if p == nil {
		sh.misses.Add(1)
		return nil
	}
	sh.hits.Add(1)
	return p[1+len(lines):]
}

// find returns the payload stored for lines, or nil and the key a new
// entry for lines takes. Distinct line lists with equal hashes take
// consecutive keys from their hash on; entries are never removed one at a
// time, so a probe ends at the first free key. The caller holds sh.mu.
func (sh *Shard) find(h uint64, lines []mem.Line) ([]uint64, uint64) {
	for ; ; h++ {
		p, ok := sh.entries[h]
		if !ok {
			return nil, h
		}
		if holds(p, lines) {
			return p, h
		}
	}
}

// holds reports whether payload p was stored for lines.
func holds(p []uint64, lines []mem.Line) bool {
	if p[0] != uint64(len(lines)) {
		return false
	}
	for i, l := range lines {
		if p[1+i] != uint64(l) {
			return false
		}
	}
	return true
}

// Put stores a hint's line list and blob in one payload, with no pointers
// in it: the line count, the lines, then the blob. The caller keeps both
// slices and may reuse them at once. The payload is made only for an entry
// the shard stores, so an insert the cap rejects allocates nothing.
// Duplicate inserts (two workers racing on the same hint) keep the first
// entry — both hold identical bits, so which one wins is unobservable.
func (sh *Shard) Put(lines []mem.Line, blob []uint64) { sh.put(hashLines(lines), lines, blob) }

func (sh *Shard) put(h uint64, lines []mem.Line, blob []uint64) {
	sh.mu.RLock()
	gone := sh.evicted
	sh.mu.RUnlock()
	if gone {
		return // stale handle: don't let a dead shard's insert evict live ones
	}
	words := 1 + len(lines) + len(blob)
	n := entryBytes(words)
	if !sh.store.charge(sh, n) {
		sh.rejects.Add(1)
		return
	}
	sh.mu.Lock()
	old, free := sh.find(h, lines)
	if sh.evicted || old != nil {
		sh.mu.Unlock()
		sh.store.uncharge(n)
		return
	}
	p := make([]uint64, words)
	p[0] = uint64(len(lines))
	for i, l := range lines {
		p[1+i] = uint64(l)
	}
	copy(p[1+len(lines):], blob)
	sh.entries[free] = p
	sh.bytes += n
	sh.mu.Unlock()
	sh.inserts.Add(1)
}
