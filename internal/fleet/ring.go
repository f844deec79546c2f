package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring over backend indices: each backend owns
// `replicas` virtual points on a 64-bit circle, and a key is served by
// the backend owning the first point at or after the key's hash. Two
// properties matter to the fleet:
//
//   - stability: adding or removing one backend moves only the keys that
//     hashed into its arcs, so the rest of the fleet keeps its warm job
//     tables and checkpoint stores (the CODA co-location argument applied
//     to our own serving tier);
//   - deterministic fallback order: walking the circle from the key's
//     point yields the same backend sequence for every proxy instance, so
//     failover re-dispatch lands on the same secondary everywhere.
//
// Virtual points are hashed from the backend's stable identity (its URL),
// never its discovered display ID, so a backend restart cannot silently
// remap the keyspace.
type ring struct {
	hashes []uint64 // sorted virtual points
	owner  []int    // owner[i] = backend index of hashes[i]
	n      int      // backend count
}

// newRing builds the ring over ids (one per backend, stable strings) with
// the given virtual-point count per backend.
func newRing(ids []string, replicas int) *ring {
	if replicas <= 0 {
		replicas = 64
	}
	r := &ring{n: len(ids)}
	type pt struct {
		h   uint64
		idx int
	}
	pts := make([]pt, 0, len(ids)*replicas)
	for idx, id := range ids {
		for v := 0; v < replicas; v++ {
			pts = append(pts, pt{hash64(fmt.Sprintf("%s#%d", id, v)), idx})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].h != pts[j].h {
			return pts[i].h < pts[j].h
		}
		return pts[i].idx < pts[j].idx // deterministic on (vanishingly rare) collisions
	})
	r.hashes = make([]uint64, len(pts))
	r.owner = make([]int, len(pts))
	for i, p := range pts {
		r.hashes[i] = p.h
		r.owner[i] = p.idx
	}
	return r
}

// order returns every backend index exactly once, in the ring-walk order
// for key: the key's primary owner first, then each distinct successor.
func (r *ring) order(key string) []int {
	out := make([]int, 0, r.n)
	if r.n == 0 {
		return out
	}
	seen := make([]bool, r.n)
	h := hash64(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	for i := 0; i < len(r.hashes) && len(out) < r.n; i++ {
		idx := r.owner[(start+i)%len(r.hashes)]
		if !seen[idx] {
			seen[idx] = true
			out = append(out, idx)
		}
	}
	return out
}

// hash64 is FNV-1a (the repo's standard fingerprint) pushed through a
// murmur3 finalizer. Raw FNV-1a has weak upper-bit avalanche on
// near-identical short strings — exactly what vnode labels ("url#0",
// "url#1", ...) are — which clusters a backend's points into contiguous
// arcs and wrecks the distribution; the finalizer restores uniformity
// while keeping the function deterministic and dependency-free.
func hash64(s string) uint64 {
	f := fnv.New64a()
	_, _ = f.Write([]byte(s))
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
