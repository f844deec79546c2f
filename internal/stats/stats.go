// Package stats collects per-unit and system-wide simulation metrics: the
// interconnect hop counts of Figure 8, the per-core active-cycle
// distributions of Figures 2 and 9, cache statistics, and the energy
// breakdown of Figure 7.
package stats

import (
	"math"
	"sort"

	"abndp/internal/energy"
	"abndp/internal/obs"
)

// Unit aggregates the counters of a single NDP unit.
type Unit struct {
	ActiveCycles []int64 // one entry per core
	TasksRun     int64

	InterHops int64 // inter-stack mesh hops traversed by this unit's messages
	IntraMsgs int64 // intra-stack crossbar messages

	DRAMReads, DRAMWrites int64
	DRAMQueueCycles       int64 // total queueing delay at this unit's channel

	CacheHits, CacheMisses, CacheInserts, CacheBypasses int64
	CacheDeadProbes                                     int64 // probes after the cache was disabled by a fault
	L1Hits                                              int64
	L1Misses                                            int64 // L1 misses the prefetch buffer did not serve: one transfer each
	PFHits                                              int64 // prefetch-buffer reuse hits

	TasksStolenIn, TasksStolenOut int64
	StallCycles                   int64 // residual prefetch stalls charged to cores
	TasksForwarded                int64 // tasks sent to a different unit by the scheduler

	Energy energy.Breakdown
}

// FaultCounters summarizes the fault-injection activity of one run. All
// counters stay zero on a fault-free run.
type FaultCounters struct {
	DRAMRetries        int64 // ECC retry attempts across all DRAM accesses
	DRAMUncorrected    int64 // accesses that exhausted the retry budget
	TasksReExecuted    int64 // in-flight tasks re-run after a unit death
	TasksRedistributed int64 // queued tasks moved off a dead unit
	ReroutedMsgs       int64 // mesh messages detoured around dead links
	ReroutedExtraHops  int64 // extra hops paid by those detours
	DeadUnits          int64 // units failed during the run
	DeadLinks          int64 // directional mesh links failed during the run
}

// Any reports whether any fault activity was recorded.
func (f *FaultCounters) Any() bool { return *f != FaultCounters{} }

// System aggregates the whole run.
type System struct {
	Units    []Unit
	Makespan int64 // total execution cycles
	Tasks    int64 // total tasks executed
	Steps    int64 // timestamps (bulk-synchronous phases) executed

	// Faults summarizes fault-injection activity (all zero without faults).
	Faults FaultCounters

	// Timeline is the sampled busy-core count over time (one entry per
	// sample interval), populated when utilization sampling is enabled.
	Timeline         []int
	TimelineInterval int64

	// Obs holds the phase-resolved observability metrics of the run (one
	// snapshot per bulk-synchronous timestamp: DRAM queue occupancy,
	// per-link NoC traffic, Traveller hit/bypass rates, scheduler score
	// breakdowns). Nil unless an Observer with Metrics was installed; the
	// simulated counters above are byte-identical either way.
	Obs *obs.Metrics
}

// NewSystem creates counters for units NDP units with coresPerUnit cores.
func NewSystem(units, coresPerUnit int) *System {
	s := &System{Units: make([]Unit, units)}
	for i := range s.Units {
		s.Units[i].ActiveCycles = make([]int64, coresPerUnit)
	}
	return s
}

// TotalInterHops sums inter-stack hops over all units (Figure 8 metric).
func (s *System) TotalInterHops() int64 {
	var t int64
	for i := range s.Units {
		t += s.Units[i].InterHops
	}
	return t
}

// TotalEnergy sums the energy breakdown over all units.
func (s *System) TotalEnergy() energy.Breakdown {
	var b energy.Breakdown
	for i := range s.Units {
		b.Add(s.Units[i].Energy)
	}
	return b
}

// CoreActiveCycles returns the active cycles of every core in the system,
// sorted ascending — the Figure 9 curve.
func (s *System) CoreActiveCycles() []int64 {
	var out []int64
	for i := range s.Units {
		out = append(out, s.Units[i].ActiveCycles...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// UnitActiveCycles returns per-unit total active cycles, unsorted.
func (s *System) UnitActiveCycles() []int64 {
	out := make([]int64, len(s.Units))
	for i := range s.Units {
		var t int64
		for _, c := range s.Units[i].ActiveCycles {
			t += c
		}
		out[i] = t
	}
	return out
}

// TotalCores returns the number of cores across all units.
func (s *System) TotalCores() int {
	n := 0
	for i := range s.Units {
		n += len(s.Units[i].ActiveCycles)
	}
	return n
}

// TimelineSpan returns the cycles covered by the sampled utilization
// timeline: samples times the sampling interval. It is 0 — never negative
// or overflowed garbage — when sampling was off (empty Timeline) or the
// interval is unset or non-positive.
func (s *System) TimelineSpan() int64 {
	if s.TimelineInterval <= 0 || len(s.Timeline) == 0 {
		return 0
	}
	return int64(len(s.Timeline)) * s.TimelineInterval
}

// MeanBusyCores returns the mean sampled busy-core count over the
// timeline, or 0 for a zero-sample run (a short run can finish before the
// first sample fires; dividing by the empty sample count would be NaN).
func (s *System) MeanBusyCores() float64 {
	if len(s.Timeline) == 0 {
		return 0
	}
	var sum int64
	for _, b := range s.Timeline {
		sum += int64(b)
	}
	return float64(sum) / float64(len(s.Timeline))
}

// TimelineUtilization returns the mean sampled core utilization in [0, 1]:
// mean busy cores over total cores. It is 0 for a zero-sample run, an
// unset or non-positive sampling interval, or a system with no cores —
// all of which would otherwise divide by zero.
func (s *System) TimelineUtilization() float64 {
	cores := s.TotalCores()
	if cores == 0 || s.TimelineInterval <= 0 || len(s.Timeline) == 0 {
		return 0
	}
	return s.MeanBusyCores() / float64(cores)
}

// CacheHitRate returns the system-wide DRAM-cache hit rate, or 0 with no
// accesses.
func (s *System) CacheHitRate() float64 {
	var h, m int64
	for i := range s.Units {
		h += s.Units[i].CacheHits
		m += s.Units[i].CacheMisses
	}
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// BoxStats is a five-number summary used for the Figure 2 box plot.
type BoxStats struct {
	Min, Q1, Median, Q3, Max float64
}

// Box computes the five-number summary of vs. It returns a zero value for
// empty input.
func Box(vs []int64) BoxStats {
	if len(vs) == 0 {
		return BoxStats{}
	}
	x := make([]float64, len(vs))
	for i, v := range vs {
		x[i] = float64(v)
	}
	sort.Float64s(x)
	return BoxStats{
		Min:    x[0],
		Q1:     Quantile(x, 0.25),
		Median: Quantile(x, 0.5),
		Q3:     Quantile(x, 0.75),
		Max:    x[len(x)-1],
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) of sorted data using linear
// interpolation between closest ranks.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Geomean returns the geometric mean of vs, skipping non-positive entries.
// It returns 0 when no positive entries exist.
func Geomean(vs []float64) float64 {
	var sum float64
	n := 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// ImbalanceRatio returns max/mean of per-unit active cycles — a scalar load
// imbalance indicator (1.0 = perfectly balanced). Returns 0 when idle.
func (s *System) ImbalanceRatio() float64 {
	vs := s.UnitActiveCycles()
	var sum, maxv int64
	for _, v := range vs {
		sum += v
		if v > maxv {
			maxv = v
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(vs))
	return float64(maxv) / mean
}
