package abndp

import (
	"fmt"
	"testing"

	"abndp/internal/apps"
	"abndp/internal/ckpt"
	"abndp/internal/ndp"
)

// parityApps are the paper's six core workloads checked for checkpoint
// hash parity.
var parityApps = []string{"pr", "bfs", "sssp", "gcn", "knn", "spmv"}

// runHashed simulates one workload and returns the golden result hash plus
// the executed event count. prepare, when non-nil, configures the fresh
// system (its checkpoint shard) before the run.
func runHashed(t *testing.T, app string, d Design, cfg Config, prepare func(*ndp.System)) (uint64, int64) {
	t.Helper()
	a, err := apps.New(app, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	if prepare != nil {
		prepare(sys)
	}
	res := sys.Run(a)
	if res.Events <= 0 {
		t.Fatalf("%s/%v: executed %d events", app, d, res.Events)
	}
	return ResultHash(res), res.Events
}

// TestCheckpointHashParity is the acceptance test of the checkpoint store:
// for all six workloads × fault plans, a cold run with no store, a
// store-priming run and a warm (store-hit) run must produce byte-identical
// results (equal ResultHash) and identical event counts. CI's perf-smoke
// job runs it under -race.
func TestCheckpointHashParity(t *testing.T) {
	cfg := smallConfig()
	plans := map[string]string{
		"nofault": "",
		"kills":   "kill:1@20000;retry:16",
		"slow":    "slow:2:1.5@1000",
	}
	for name, spec := range plans {
		for _, app := range parityApps {
			t.Run(name+"/"+app, func(t *testing.T) {
				c := cfg
				if spec != "" {
					p, err := ParseFaults(spec)
					if err != nil {
						t.Fatal(err)
					}
					c.Faults = p
				}
				cold, coldEv := runHashed(t, app, DesignO, c, nil)

				store := ckpt.NewStore(0)
				shardFor := func(sys *ndp.System) *ckpt.Shard {
					return store.Shard(app + "|" + sys.Design.String() + "|" + sys.Cfg.PrefixKey())
				}
				prime, primeEv := runHashed(t, app, DesignO, c, func(sys *ndp.System) {
					sys.SetCheckpoint(shardFor(sys))
				})
				warm, warmEv := runHashed(t, app, DesignO, c, func(sys *ndp.System) {
					sys.SetCheckpoint(shardFor(sys))
				})

				if prime != cold || warm != cold {
					t.Fatalf("hash divergence: cold=%x prime=%x warm=%x", cold, prime, warm)
				}
				if primeEv != coldEv || warmEv != coldEv {
					t.Fatalf("event-count divergence: cold=%d prime=%d warm=%d",
						coldEv, primeEv, warmEv)
				}
				st := store.Stats()
				if spec == "" {
					if st.Hits == 0 || st.Inserts == 0 {
						t.Fatalf("fault-free warm run never hit the store: %+v", st)
					}
				} else if name == "kills" {
					// A kill plan installs a dead mask at construction, so
					// the store must never have been consulted.
					if st.Hits != 0 || st.Misses != 0 || st.Inserts != 0 {
						t.Fatalf("store consulted under a kill plan: %+v", st)
					}
				}
			})
		}
	}
}

// TestCheckpointParityLowestDistance covers the second placement kind that
// consumes precomputed vectors (designs Sm/Sl/C use lowest-distance).
func TestCheckpointParityLowestDistance(t *testing.T) {
	cfg := smallConfig()
	for _, d := range []Design{DesignSm, DesignC} {
		t.Run(d.String(), func(t *testing.T) {
			cold, _ := runHashed(t, "pr", d, cfg, nil)
			store := ckpt.NewStore(0)
			for i := 0; i < 2; i++ {
				got, _ := runHashed(t, "pr", d, cfg, func(sys *ndp.System) {
					sys.SetCheckpoint(store.Shard("pr|" + sys.Design.String() + "|" + sys.Cfg.PrefixKey()))
				})
				if got != cold {
					t.Fatalf("run %d: hash %x != cold %x", i, got, cold)
				}
			}
			if st := store.Stats(); st.Hits == 0 {
				t.Fatalf("store never hit: %+v", st)
			}
		})
	}
}

// TestPrefixShardSharedAcrossSchedulerKnobs pins the knob-sweep mechanism:
// two configs differing only in scheduler knobs map to the same shard, and
// the second run hits vectors the first inserted while still producing its
// own (different) result, the same result as a cold run with no store.
func TestPrefixShardSharedAcrossSchedulerKnobs(t *testing.T) {
	store := ckpt.NewStore(0)
	cfg := smallConfig()
	run := func(alpha float64) (uint64, string) {
		c := cfg
		c.HybridAlpha = alpha
		var key string
		h, _ := runHashed(t, "pr", DesignO, c, func(sys *ndp.System) {
			sh := store.Shard("pr|" + sys.Design.String() + "|" + sys.Cfg.PrefixKey())
			key = sh.Key()
			sys.SetCheckpoint(sh)
		})
		return h, key
	}
	h0, k0 := run(0)
	before := store.Stats()
	h1, k1 := run(4)
	after := store.Stats()
	if k0 != k1 {
		t.Fatalf("scheduler-knob variants mapped to different shards:\n%s\n%s", k0, k1)
	}
	if after.Hits <= before.Hits {
		t.Fatalf("warm run gained no hits: before=%+v after=%+v", before, after)
	}
	if h0 == h1 {
		t.Fatal(fmt.Sprintf("alpha=0 and alpha=4 produced identical results (%x) — knob has no effect at this scale?", h0))
	}
	c := cfg
	c.HybridAlpha = 4
	if cold, _ := runHashed(t, "pr", DesignO, c, nil); h1 != cold {
		t.Fatalf("alpha=4 on the alpha=0-primed shard hashed %x, cold alpha=4 %x", h1, cold)
	}
}
