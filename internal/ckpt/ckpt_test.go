package ckpt

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"abndp/internal/config"
	"abndp/internal/core"
	"abndp/internal/mem"
	"abndp/internal/noc"
	"abndp/internal/topology"
)

// putBlob stores a 4-word blob of v for lines.
func putBlob(sh *Shard, lines []mem.Line, v uint64) {
	sh.Put(append([]mem.Line(nil), lines...), []uint64{v, v, v, v})
}

func TestShardHitMiss(t *testing.T) {
	st := NewStore(1 << 20)
	sh := st.Shard("k")
	lines := []mem.Line{1, 2, 3}
	if got := sh.Get(lines); got != nil {
		t.Fatalf("cold lookup returned %v, want nil", got)
	}
	putBlob(sh, lines, 7)
	got := sh.Get(lines)
	if len(got) != 4 || got[0] != 7 {
		t.Fatalf("warm lookup returned %v", got)
	}
	// Same shard key must return the same shard with the entry still there.
	if st.Shard("k").Get(lines) == nil {
		t.Fatal("re-fetched shard lost the entry")
	}
	s := st.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Inserts != 1 || s.Shards != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestCollisionIsMissNeverWrongValue forces distinct line lists onto the
// same hash: the lookup must probe past the mismatched entry (or miss),
// never return the other hint's blob. c, with the next hash, takes the key
// after the one b probed to.
func TestCollisionIsMissNeverWrongValue(t *testing.T) {
	st := NewStore(1 << 20)
	sh := st.Shard("k")
	a := []mem.Line{1, 2}
	b := []mem.Line{3, 4}
	c := []mem.Line{1, 2, 3}
	h := uint64(12345) // deliberately shared fake hash
	sh.put(h, a, []uint64{10})
	if got := sh.get(h, b); got != nil {
		t.Fatalf("colliding lookup returned %v, want nil", got)
	}
	sh.put(h, b, []uint64{20})
	sh.put(h+1, c, []uint64{30})
	if got := sh.get(h, a); got == nil || got[0] != 10 {
		t.Fatalf("probed lookup for a returned %v", got)
	}
	if got := sh.get(h, b); got == nil || got[0] != 20 {
		t.Fatalf("probed lookup for b returned %v", got)
	}
	if got := sh.get(h+1, c); got == nil || got[0] != 30 {
		t.Fatalf("probed lookup for c returned %v", got)
	}
	if got := sh.get(h+1, a); got != nil {
		t.Fatalf("lookup of a under another hash returned %v, want nil", got)
	}
}

func TestDuplicatePutKeepsFirstAndBytesStable(t *testing.T) {
	st := NewStore(1 << 20)
	sh := st.Shard("k")
	lines := []mem.Line{9, 9, 9}
	putBlob(sh, lines, 1)
	before := st.Stats().Bytes
	putBlob(sh, lines, 1) // identical bits in practice; dedup keeps the first
	s := st.Stats()
	if s.Bytes != before {
		t.Fatalf("duplicate insert changed bytes: %d -> %d", before, s.Bytes)
	}
	if s.Inserts != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestEvictionLRUAndRejection(t *testing.T) {
	st := NewStore(300) // tiny: each entry charges its payload words*8+64 bytes
	old := st.Shard("old")
	putBlob(old, []mem.Line{1}, 1) // 1+1+4 words: 48+64 = 112 bytes
	hot := st.Shard("hot")
	putBlob(hot, []mem.Line{2}, 2)
	// Filling hot past the cap must evict "old" (LRU), not "hot" itself.
	for i := 0; i < 4; i++ {
		putBlob(hot, []mem.Line{mem.Line(10 + i)}, uint64(i))
	}
	s := st.Stats()
	if s.Evictions == 0 {
		t.Fatalf("expected evictions, stats = %+v", s)
	}
	if st.Shard("hot").Get([]mem.Line{2}) == nil &&
		s.Rejects == 0 {
		t.Fatalf("hot shard lost entries without any rejects, stats = %+v", s)
	}
	if old2 := st.Shard("old"); old2 == old {
		t.Fatal("evicted shard was returned again instead of a fresh one")
	}
	// Rejection path: a single shard larger than the whole cap.
	st2 := NewStore(100)
	lone := st2.Shard("lone")
	putBlob(lone, []mem.Line{1}, 1)                // 112 bytes > cap → reject
	putBlob(lone, []mem.Line{1, 2, 3, 4, 5, 6}, 1) // way over → reject
	if s2 := st2.Stats(); s2.Rejects == 0 || s2.Bytes != 0 {
		t.Fatalf("lone-shard overflow stats = %+v", s2)
	}
}

// TestPutOnEvictedShardIsDropped pins the stale-handle path: a caller still
// holding a shard pointer after eviction may keep reading (misses) and
// writing (drops), but must never corrupt store accounting.
func TestPutOnEvictedShardIsDropped(t *testing.T) {
	st := NewStore(400)
	stale := st.Shard("stale")
	putBlob(stale, []mem.Line{1}, 1)
	fresh := st.Shard("fresh")
	for i := 0; i < 6; i++ { // push past cap → "stale" evicted
		putBlob(fresh, []mem.Line{mem.Line(100 + i)}, 1)
	}
	if st.Stats().Evictions == 0 {
		t.Skip("cap did not force eviction; adjust sizes")
	}
	before := st.Stats().Bytes
	putBlob(stale, []mem.Line{2}, 2) // dropped: shard is evicted
	if got := st.Stats().Bytes; got != before {
		t.Fatalf("put on evicted shard changed bytes: %d -> %d", before, got)
	}
	if stale.Get([]mem.Line{2}) != nil {
		t.Fatal("put on evicted shard became visible")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	st := NewStore(16 << 20)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := st.Shard(fmt.Sprintf("k%d", w%2)) // two shards, shared
			for i := 0; i < 500; i++ {
				lines := []mem.Line{mem.Line(i % 50), mem.Line(w % 2)}
				if got := sh.Get(lines); got != nil {
					if got[0] != uint64(i%50) {
						panic(fmt.Sprintf("wrong value %v for %v", got, lines))
					}
					continue
				}
				sh.Put(lines, []uint64{uint64(i % 50)})
			}
		}(w)
	}
	wg.Wait()
	s := st.Stats()
	if s.Shards != 2 || s.Entries == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestEntriesOrder(t *testing.T) {
	st := NewStore(1 << 20)
	st.Shard("a")
	st.Shard("b")
	st.Shard("a") // touch a again → most recent
	es := st.Entries()
	if len(es) != 2 || es[0].Key != "a" || es[1].Key != "b" {
		t.Fatalf("entries = %+v", es)
	}
}

func TestHashLinesDistinguishesOrderAndLength(t *testing.T) {
	pairs := [][2][]mem.Line{
		{{1, 2}, {2, 1}},
		{{1}, {1, 0}},
		{{}, {0}},
	}
	for _, p := range pairs {
		if hashLines(p[0]) == hashLines(p[1]) {
			t.Fatalf("hash collision between %v and %v", p[0], p[1])
		}
	}
}

// TestEntryBudget holds entries to their layout. Storing the stack form of
// a 10-line camp-aware hint on the default machine charges the payload's
// words plus entryOverhead and is one allocation, the payload, of no more
// bytes than it is charged; only the few inserts at which the shard's map
// grows allocate more (its new table). Stats.Bytes is the sum of what the
// entries hold, through duplicate and colliding inserts.
func TestEntryBudget(t *testing.T) {
	cfg := config.Default()
	topo := topology.New(topology.Config{
		MeshX: cfg.MeshX, MeshY: cfg.MeshY,
		UnitsPerStack: cfg.UnitsPerStack, Groups: cfg.Groups(),
	})
	space := mem.NewSpace(topo.Units(), cfg.UnitBytes)
	model := core.NewCostModel(noc.New(topo, &cfg), core.NewCampMap(topo, space, true), true)
	sc := model.NewFormScratch()
	rng := rand.New(rand.NewSource(3))
	totalLines := int64(space.TotalBytes() / mem.LineSize)

	st := NewStore(0)
	sh := st.Shard("k")
	mapGrowths := 0
	for i := 0; i < 300; i++ {
		lines := make([]mem.Line, 10)
		for j := range lines {
			lines[j] = mem.Line(rng.Int63n(totalLines))
		}
		f := model.MemCostForm(sc, lines)
		before := st.Stats().Bytes
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sh.Put(lines, f)
		runtime.ReadMemStats(&m1)
		charged := st.Stats().Bytes - before
		if want := int64(8*(1+len(lines)+len(f)) + entryOverhead); charged != want {
			t.Fatalf("insert %d: charged %d bytes for a %d-word form, want %d", i, charged, len(f), want)
		}
		switch allocs := m1.Mallocs - m0.Mallocs; {
		case allocs == 0:
			t.Fatalf("insert %d: no allocation, want the payload's", i)
		case allocs > 1:
			mapGrowths++
		default:
			if got := int64(m1.TotalAlloc - m0.TotalAlloc); got > charged {
				t.Fatalf("insert %d: allocated %d bytes, charged %d", i, got, charged)
			}
		}
		if i%7 == 0 {
			sh.Put(lines, f)                       // a duplicate: no charge
			sh.put(hashLines(lines), lines[:9], f) // a collision: its own entry
		}
	}
	// The 343 entries grow the map 7 times: its first 8-slot group, then
	// six doublings to 512 slots.
	if mapGrowths > 8 {
		t.Fatalf("%d of 300 inserts allocated more than their payload", mapGrowths)
	}
	var held int64
	for _, p := range sh.entries {
		held += entryBytes(len(p))
	}
	if s := st.Stats(); s.Bytes != held || s.Entries != int64(len(sh.entries)) {
		t.Fatalf("stats %+v, entries hold %d bytes in %d entries", s, held, len(sh.entries))
	}
}
