package core

import (
	"abndp/internal/mem"
	"abndp/internal/noc"
	"abndp/internal/topology"
)

// CostModel evaluates the scheduling score of Eq. 1:
//
//	score(t, u) = costmem(t, u) + B * costload(t, u)
//
// costmem (Eq. 2) is the mean one-way interconnect latency from candidate
// unit u to each accessed line's nearest data location — home only for
// cache-less designs, or the nearest of home+camps when the policy is
// camp-aware (the hardware/software co-design of §5.1). costload (Eq. 3)
// is W_u / mean(W) - 1 from the periodically exchanged load snapshots.
type CostModel struct {
	noc       *noc.Model
	camps     *CampMap
	campAware bool
	// campPenalty biases camp locations relative to the home: a camp
	// access pays the SRAM tag check and risks a miss detour, so a camp
	// only beats the home when it is meaningfully closer. Without this, a
	// single-use line's camp ties with its home at distance zero and load
	// noise scatters tasks onto camps that will never hit.
	campPenalty int64
	// dead, when non-nil, marks failed units whose camp slices no longer
	// hold data; costmem must not credit them as data locations. Homes stay
	// valid — a dead unit's memory stack still serves its channel.
	dead []bool

	// stackLat is noc's stack-pair latency table: stackLat[t*stacks+s] is
	// the latency between a unit in stack t and a different unit in stack
	// s (the table is symmetric). MemCostVecInto reads one row per data
	// location instead of one entry per unit.
	stackLat []int64
	stacks   int
	perStack int
}

// SetDeadMask installs the fault layer's dead-unit mask (aliased, updated
// in place as units fail). Nil — the default — means all units are alive.
func (c *CostModel) SetDeadMask(dead []bool) { c.dead = dead }

// NewCostModel builds a cost model. campAware selects whether costmem may
// place data at camp locations (designs C-series caching is present *and*
// the policy knows it — design O) or only at homes (B, Sm, Sl, Sh).
func NewCostModel(n *noc.Model, camps *CampMap, campAware bool) *CostModel {
	topo := n.Topology()
	return &CostModel{
		noc:         n,
		camps:       camps,
		campAware:   campAware,
		campPenalty: n.InterHopCycles() / 2,
		stackLat:    n.StackLatencies(),
		stacks:      topo.Stacks(),
		perStack:    topo.Config().UnitsPerStack,
	}
}

// CampAware reports whether camp locations participate in costmem.
func (c *CostModel) CampAware() bool { return c.campAware }

// Candidates resolves each line to its possible data locations, reusing
// the two provided buffers. The returned outer slice aliases locBuf2D.
// When not camp-aware each line has exactly one candidate (its home).
func (c *CostModel) Candidates(lines []mem.Line, flat []topology.UnitID, outer [][]topology.UnitID) ([]topology.UnitID, [][]topology.UnitID) {
	flat = flat[:0]
	outer = outer[:0]
	for _, l := range lines {
		start := len(flat)
		if c.campAware {
			flat = c.camps.AppendLocations(flat, l)
		} else {
			flat = append(flat, c.camps.Home(l))
		}
		outer = append(outer, flat[start:len(flat):len(flat)])
	}
	return flat, outer
}

// MemCost returns costmem(t, u) in cycles for a task whose accessed lines
// have the given candidate location sets (from Candidates). The first
// candidate of each line is its home; the rest are camps and carry the camp
// penalty.
func (c *CostModel) MemCost(cands [][]topology.UnitID, u topology.UnitID) float64 {
	if len(cands) == 0 {
		return 0
	}
	var sum int64
	for _, locs := range cands {
		best := c.noc.Latency(u, locs[0])
		for _, loc := range locs[1:] {
			if c.dead != nil && c.dead[loc] {
				continue // dead camp: its slice holds no data
			}
			if lat := c.noc.Latency(u, loc) + c.campPenalty; lat < best {
				best = lat
			}
		}
		sum += best
	}
	return float64(sum) / float64(len(cands))
}

// MemCostLines is the convenience form of MemCost for tests and one-off
// calls; hot paths should reuse buffers via Candidates.
func (c *CostModel) MemCostLines(lines []mem.Line, u topology.UnitID) float64 {
	_, cands := c.Candidates(lines, nil, nil)
	return c.MemCost(cands, u)
}

// DeadFree reports whether no dead-unit mask is installed. Only then is
// costmem a pure function of (lines, unit) — the precondition for caching
// or precomputing MemCostVec results.
func (c *CostModel) DeadFree() bool { return c.dead == nil }

// VecScratch is the working memory of MemCostVecInto, sized for one
// topology. Reuse it across calls; it must not be shared between
// goroutines.
type VecScratch struct {
	stackSum []int64 // per stack: Σ over lines of the stack-level minimum
	best     []int64 // per stack: the current line's minimum
	corr     []int64 // per unit: exact correction of location units, zero between calls
	locs     []topology.UnitID
}

// NewVecScratch allocates a MemCostVecInto scratch for c's topology.
func (c *CostModel) NewVecScratch() *VecScratch {
	return &VecScratch{
		stackSum: make([]int64, c.stacks),
		best:     make([]int64, c.stacks),
		corr:     make([]int64, c.stacks*c.perStack),
	}
}

// MemCostVec returns costmem(t, u) for every unit u at once, bit-identical
// to calling Candidates+MemCost per unit (see MemCostVecInto). Under a
// dead-unit mask the vector depends on the mask, so only a DeadFree
// model's vectors may be cached.
func (c *CostModel) MemCostVec(lines []mem.Line) []float64 {
	vec := make([]float64, c.stacks*c.perStack)
	c.MemCostVecInto(vec, c.NewVecScratch(), lines)
	return vec
}

// MemCostVecInto writes costmem(t, u) for every unit u into vec (one entry
// per unit), bit-identical to Candidates+MemCost per unit, skipping dead
// camps the same way. sc comes from NewVecScratch.
//
// It factors the scan by stack. Between two distinct units the latency
// depends only on their stacks, so per line it takes the minimum over the
// line's locations once per stack from stackLat and adds it to a per-stack
// int64 sum. Only a location unit itself sees a different latency (zero to
// itself instead of the same-stack one), so each location unit gets the
// difference between its exact minimum and its stack's as a correction,
// read from the stack minimum. Because a stack's units are numbered
// consecutively, unit u's value is then
//
//	float64(stackSum[stack(u)] + corr[u]) / float64(len(lines))
//
// — the same exact integer sum and single division as MemCost. Per line
// that is stacks x (C+1) table reads plus C+1 corrections, instead of
// units x (C+1).
func (c *CostModel) MemCostVecInto(vec []float64, sc *VecScratch, lines []mem.Line) {
	if len(lines) == 0 {
		clear(vec)
		return
	}
	stacks, per, pen := c.stacks, c.perStack, c.campPenalty
	sum, best, corr := sc.stackSum, sc.best, sc.corr
	clear(sum)
	for _, l := range lines {
		locs := c.liveLocations(sc.locs[:0], l)
		sc.locs = locs
		home := locs[0]
		if len(locs) == 1 {
			// Homes only: the home's row is the per-stack minimum, and
			// the home itself is at distance zero.
			hs := int(home) / per
			row := c.stackLat[hs*stacks:][:stacks]
			for s, lat := range row {
				sum[s] += lat
			}
			corr[home] -= row[hs]
			continue
		}
		copy(best, c.stackLat[int(home)/per*stacks:][:stacks])
		for _, loc := range locs[1:] {
			row := c.stackLat[int(loc)/per*stacks:][:stacks]
			for s, lat := range row {
				if lat += pen; lat < best[s] {
					best[s] = lat
				}
			}
		}
		for s, b := range best {
			sum[s] += b
		}
		// A location unit's exact minimum differs from its stack's in one
		// term only: its own, zero to itself instead of the same-stack
		// latency. The locations lie in pairwise-distinct stacks (one per
		// group, and groups are unions of whole stacks), so no other
		// location shares that stack. Given pen >= 0 and non-negative
		// latencies, the home's exact minimum is 0 and a camp's is
		// min(pen, best[its stack]).
		corr[home] -= best[int(home)/per]
		for _, camp := range locs[1:] {
			if b := best[int(camp)/per]; pen < b {
				corr[camp] += pen - b
			}
		}
	}
	n := float64(len(lines))
	for s, base := range sum {
		plain := float64(base) / n // the units without a correction
		for u := s * per; u < (s+1)*per; u++ {
			if corr[u] == 0 {
				vec[u] = plain
				continue
			}
			vec[u] = float64(base+corr[u]) / n
			corr[u] = 0
		}
	}
}

// liveLocations appends line l's data locations to dst as MemCost sees
// them: the home first (it stays valid when its unit dies), then, when
// camp-aware, the camps whose units are alive.
func (c *CostModel) liveLocations(dst []topology.UnitID, l mem.Line) []topology.UnitID {
	if !c.campAware {
		return append(dst, c.camps.Home(l))
	}
	dst = c.camps.AppendLocations(dst, l)
	if c.dead == nil {
		return dst
	}
	live := dst[:1]
	for _, loc := range dst[1:] {
		if !c.dead[loc] {
			live = append(live, loc)
		}
	}
	return live
}

// LoadCost returns costload(t, u) = W_u/mean(W) - 1 given the load vector
// snapshot. A zero mean (fully idle system) yields 0 for every unit.
func LoadCost(loads []float64, u topology.UnitID) float64 {
	var sum float64
	for _, w := range loads {
		sum += w
	}
	if sum <= 0 {
		return 0
	}
	mean := sum / float64(len(loads))
	return loads[u]/mean - 1
}

// DefaultHybridWeight returns the paper's default B = D_inter * d/2 where d
// is the inter-stack mesh diameter: an idle unit may be up to half the
// maximum hop distance further from the data than the best unit.
func DefaultHybridWeight(n *noc.Model) float64 {
	return float64(n.InterHopCycles()) * float64(n.Topology().Diameter()) / 2
}

// HybridWeight returns B = alpha * D_inter, or the default when alpha < 0.
func HybridWeight(n *noc.Model, alpha float64) float64 {
	if alpha < 0 {
		return DefaultHybridWeight(n)
	}
	return alpha * float64(n.InterHopCycles())
}
