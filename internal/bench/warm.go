package bench

import (
	"fmt"
	"time"

	"abndp/internal/apps"
	"abndp/internal/ckpt"
	"abndp/internal/config"
	"abndp/internal/ndp"
)

// WarmSweepMetrics is the outcome of RunWarmSweep: the same scheduler-knob
// sweep executed cold (bare engine, fresh inputs every run — the pre-
// checkpoint baseline) and warm (checkpoint store + input cache, the first
// point priming the prefix shard the rest reuse). Speedup is the whole-
// sweep wall-clock ratio; HashesMatch asserts that every warm point's
// ResultHash is byte-identical to its cold twin.
type WarmSweepMetrics struct {
	App    string `json:"app"`
	Design string `json:"design"`
	Points int    `json:"points"`

	ColdSeconds  float64 `json:"cold_seconds"`
	PrimeSeconds float64 `json:"prime_seconds"` // first point, filling the shard
	WarmSeconds  float64 `json:"warm_seconds"`  // remaining points, reusing it
	Speedup      float64 `json:"speedup"`       // cold / (prime + warm)

	HashesMatch bool `json:"hashes_match"`

	EventsCold       int64   `json:"events_cold"`
	EventsWarm       int64   `json:"events_warm"` // prime + warm points
	ColdEventsPerSec float64 `json:"cold_events_per_sec"`
	WarmEventsPerSec float64 `json:"warm_events_per_sec"`

	Checkpoint ckpt.Stats `json:"checkpoint"`
}

// warmSweepApp and the Figure 17 alpha sweep define the warm-sweep shape: a
// fig10-style scheduler-knob sweep where every point shares the prefix key
// (HybridAlpha is late-binding), i.e. the best case the checkpoint store is
// designed for and the one docs/PERF.md reports.
const warmSweepApp = "pr"

// RunWarmSweep measures checkpoint/delta re-simulation on a scheduler-knob
// sweep: every HybridAlpha point simulated cold, then the same points with
// a fresh store — the first point primes the shared prefix shard (paying
// the insert overhead), the remaining points reuse its cost vectors. Both
// paths execute every run directly (never through the result memo, which
// would dedupe the comparison away) and serially, so the wall-clock ratio
// is a fair apples-to-apples sweep cost. The result is printed as a table,
// recorded in the metrics JSON, and returned.
func (r *Runner) RunWarmSweep() *WarmSweepMetrics {
	d := config.DesignO
	p := r.params(warmSweepApp)
	cfgs := make([]config.Config, len(hybridAlphas))
	for i, a := range hybridAlphas {
		cfgs[i] = r.base
		cfgs[i].HybridAlpha = a
	}

	newApp := func() ndp.App {
		a, err := apps.New(warmSweepApp, p)
		if err != nil {
			panic(err)
		}
		return a
	}

	m := &WarmSweepMetrics{App: warmSweepApp, Design: d.String(), Points: len(cfgs), HashesMatch: true}

	// Cold baseline: no store and no input cache — the pre-checkpoint
	// engine regenerates inputs and recomputes placement every point.
	apps.EnableInputCache(false)
	coldHashes := make([]uint64, len(cfgs))
	for i, cfg := range cfgs {
		start := time.Now()
		res := ndp.NewSystem(cfg, d).Run(newApp())
		m.ColdSeconds += time.Since(start).Seconds()
		m.EventsCold += res.Events
		coldHashes[i] = ndp.ResultHash(res)
	}

	// Warm path: fresh store and the input cache back on; point 0 primes
	// the prefix shard, the rest reuse it.
	store := ckpt.NewStore(0)
	apps.EnableInputCache(true)
	for i, cfg := range cfgs {
		sys := ndp.NewSystem(cfg, d)
		sys.SetCheckpoint(store.Shard(warmSweepApp + "|" + d.String() + "|" + cfg.PrefixKey()))
		start := time.Now()
		res := sys.Run(newApp())
		wall := time.Since(start).Seconds()
		if i == 0 {
			m.PrimeSeconds = wall
		} else {
			m.WarmSeconds += wall
		}
		m.EventsWarm += res.Events
		if ndp.ResultHash(res) != coldHashes[i] {
			m.HashesMatch = false
		}
	}
	if warm := m.PrimeSeconds + m.WarmSeconds; warm > 0 {
		m.Speedup = m.ColdSeconds / warm
		m.WarmEventsPerSec = float64(m.EventsWarm) / warm
	}
	if m.ColdSeconds > 0 {
		m.ColdEventsPerSec = float64(m.EventsCold) / m.ColdSeconds
	}
	m.Checkpoint = store.Stats()
	r.metrics.WarmSweep = m

	r.header("Warm-prefix re-simulation sweep (checkpoint/delta)")
	w := r.tw()
	fmt.Fprintf(w, "app\tpoints\tcold s\tprime s\twarm s\tspeedup\thashes\tstore hits\n")
	hashes := "MATCH"
	if !m.HashesMatch {
		hashes = "MISMATCH"
	}
	fmt.Fprintf(w, "%s\t%d\t%.2f\t%.2f\t%.2f\t%.2fx\t%s\t%d\n",
		m.App, m.Points, m.ColdSeconds, m.PrimeSeconds, m.WarmSeconds,
		m.Speedup, hashes, m.Checkpoint.Hits)
	w.Flush()
	return m
}
