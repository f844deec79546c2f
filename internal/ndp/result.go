package ndp

import (
	"abndp/internal/config"
	"abndp/internal/energy"
	"abndp/internal/stats"
)

// Result summarizes one simulated run.
type Result struct {
	App    string
	Design config.Design

	Makespan int64   // execution cycles
	Seconds  float64 // Makespan in wall-clock seconds at the core clock
	Tasks    int64
	Steps    int64 // bulk-synchronous timestamps executed

	// Events is the number of simulator events the engine executed — the
	// denominator of events/sec throughput reporting. Deterministic per
	// configuration, but a host-performance metric rather than a simulated
	// outcome, so deliberately excluded from ResultHash.
	Events int64

	InterHops int64 // Figure 8 metric
	Energy    energy.Breakdown

	// Unrecoverable is the fault layer's verdict when graceful degradation
	// gave up (retry budget exhausted, no live units); "" for a completed
	// run. The makespan of an unrecoverable run is the cycle of the
	// verdict, and its per-design statistics cover work finished up to it.
	Unrecoverable string

	Stats *stats.System
}

// finalize folds static energy and per-core counters into the statistics
// and produces the Result.
func (s *System) finalize() *Result {
	secs := s.Cfg.Seconds(s.Stats.Makespan)
	staticPerUnit := s.Cfg.CoreIdleWatt * 1e12 * secs * float64(s.Cfg.CoresPerUnit)
	for i := range s.Stats.Units {
		st := &s.Stats.Units[i]
		st.Energy.Static += staticPerUnit
		for ci, c := range s.units[i].cores {
			st.ActiveCycles[ci] = c.activeCycles
		}
		if c := s.units[i].cache; c != nil {
			st.CacheHits, st.CacheMisses, st.CacheInserts, st.CacheBypasses, st.CacheDeadProbes = c.Stats()
		}
	}
	return &Result{
		App:           s.app.Name(),
		Design:        s.Design,
		Makespan:      s.Stats.Makespan,
		Seconds:       secs,
		Tasks:         s.Stats.Tasks,
		Steps:         s.Stats.Steps,
		Events:        s.Engine.Executed(),
		InterHops:     s.Stats.TotalInterHops(),
		Energy:        s.Stats.TotalEnergy(),
		Unrecoverable: s.unrecoverable,
		Stats:         s.Stats,
	}
}
