package core

import (
	"math"
	"math/bits"

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
	// s (the table is symmetric). MemCostForm reads one row per data
	// location instead of one entry per unit.
	stackLat []int64
	stacks   int
	perStack int
	topo     *topology.Topology // StackOf: a table read, not a division by perStack
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
		topo:        topo,
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

// StackForm is costmem(t, u) for every unit u in the kernel's stack form:
// one value per stack, and the units whose value differs from their
// stack's, in ascending order, with their values. A unit that is not
// listed has its stack's value. A listed unit's value is below its
// stack's (see MemCostForm), which lets placement find its argmin without
// expanding the form (internal/sched).
//
// The form is words that hold no pointers, so the checkpoint store keeps
// it as it is and placement reads it in place:
//
//	word 0             the stack count S, plus the listed count n << 32
//	words 1 .. S       each stack's value, as float64 bits
//	the next n words   each listed unit's value, as float64 bits
//	the next ⌈n/4⌉     the listed unit IDs, four uint16 to a word, the
//	                   first in the low bits
type StackForm []uint64

// Stacks returns the number of per-stack values.
func (f StackForm) Stacks() int { return int(uint32(f[0])) }

// Stack returns stack s's value, the value of each of its units that is
// not listed.
func (f StackForm) Stack(s int) float64 { return math.Float64frombits(f[1+s]) }

// Listing returns the form's listed units, read in place.
func (f StackForm) Listing() Listing {
	s, n := f.Stacks(), int(f[0]>>32)
	return Listing{vals: f[1+s : 1+s+n], units: f[1+s+n:]}
}

// Listing is the listed units of a StackForm and their values, in
// ascending unit order.
type Listing struct {
	vals  []uint64 // float64 bits
	units []uint64 // four uint16 IDs to a word, the first in the low bits
}

// Len returns the number of listed units.
func (l Listing) Len() int { return len(l.vals) }

// Unit returns the i-th listed unit.
func (l Listing) Unit(i int) topology.UnitID {
	return topology.UnitID(uint16(l.units[i>>2] >> (uint(i&3) << 4)))
}

// Value returns the i-th listed unit's value.
func (l Listing) Value(i int) float64 { return math.Float64frombits(l.vals[i]) }

// FormScratch is MemCostForm's working memory and the form it returns,
// sized once for one topology, so a call never allocates. Reuse it across
// calls; it must not be shared between goroutines.
type FormScratch struct {
	stackSum []int64  // per stack: Σ over lines of the stack-level minimum
	best     []int64  // per stack: the current line's minimum
	corr     []int64  // per unit: exact correction of location units, zero between calls
	touched  []uint64 // bit u set when corr[u] was written, zero between calls
	locs     []topology.UnitID
	rows     [][]int64 // the current line's locations' stackLat rows
	packed   []uint64  // the listed unit IDs of the form being built, packed
	form     StackForm // room for every unit listed
}

// NewFormScratch allocates a MemCostForm scratch for c's topology.
func (c *CostModel) NewFormScratch() *FormScratch {
	units, groups := c.stacks*c.perStack, c.camps.Topology().Groups()
	return &FormScratch{
		stackSum: make([]int64, c.stacks),
		best:     make([]int64, c.stacks),
		corr:     make([]int64, units),
		touched:  make([]uint64, (units+63)/64),
		locs:     make([]topology.UnitID, 0, groups),
		rows:     make([][]int64, 0, groups),
		packed:   make([]uint64, 0, (units+3)/4),
		form:     make(StackForm, 0, 1+c.stacks+units+(units+3)/4),
	}
}

// MemCostForm returns costmem(t, u) for every unit u in stack form, each
// value bit-identical to Candidates+MemCost for that unit, skipping dead
// camps the same way. The form lives in sc (from NewFormScratch) until the
// next call with it. Under a dead-unit mask the form depends on the mask,
// so only forms computed without one may be stored.
//
// It factors the scan by stack. Between two distinct units the latency
// depends only on their stacks, so per line it takes the minimum over the
// line's locations once per stack from stackLat and adds it to a per-stack
// int64 sum, in one pass over the stacks. Only a location unit itself sees
// a different latency (zero to itself instead of the same-stack one), so
// each location unit gets the difference between its exact minimum and its
// stack's as a correction, read from the stack minimum. Because a stack's
// units are numbered consecutively, unit u's value is then
//
//	float64(stackSum[stack(u)] + corr[u]) / float64(len(lines))
//
// — the same exact integer sum and single division as MemCost. Per line
// that is stacks x (C+1) table reads plus C+1 corrections, instead of
// units x (C+1). A unit is listed when its value differs from its stack's.
// No correction is positive, and int-to-float conversion and division by
// the line count are monotone, so a listed value is below its stack's.
// Only a unit whose correction was written can be listed, so the listing
// visits the units marked in a bitmap as their corrections are written,
// in ascending order, instead of every unit's correction.
func (c *CostModel) MemCostForm(sc *FormScratch, lines []mem.Line) StackForm {
	stacks, pen, topo := c.stacks, c.campPenalty, c.topo
	if len(lines) == 0 {
		sc.form = append(sc.form[:0], uint64(stacks))
		for range stacks {
			sc.form = append(sc.form, 0) // the bits of +0.0
		}
		return sc.form
	}
	sum, best, corr, touched := sc.stackSum, sc.best, sc.corr, sc.touched
	clear(sum)
	for _, l := range lines {
		locs := c.liveLocations(sc.locs[:0], l)
		sc.locs = locs
		home := locs[0]
		touched[home>>6] |= 1 << (home & 63)
		if len(locs) == 1 {
			// Homes only: the home's row is the per-stack minimum, and
			// the home itself is at distance zero.
			hs := int(topo.StackOf(home))
			row := c.stackLat[hs*stacks:][:stacks]
			for s, lat := range row {
				sum[s] += lat
			}
			corr[home] -= row[hs]
			continue
		}
		rows := sc.rows[:0]
		for _, loc := range locs {
			rows = append(rows, c.stackLat[int(topo.StackOf(loc))*stacks:][:stacks])
		}
		sc.rows = rows
		lineMinima(best, sum, rows, pen)
		// A location unit's exact minimum differs from its stack's in one
		// term only: its own, zero to itself instead of the same-stack
		// latency. The locations lie in pairwise-distinct stacks (one per
		// group, and groups are unions of whole stacks), so no other
		// location shares that stack. Given pen >= 0 and non-negative
		// latencies, the home's exact minimum is 0 and a camp's is
		// min(pen, best[its stack]).
		corr[home] -= best[topo.StackOf(home)]
		for _, camp := range locs[1:] {
			if b := best[topo.StackOf(camp)]; pen < b {
				corr[camp] += pen - b
				touched[camp>>6] |= 1 << (camp & 63)
			}
		}
	}
	// The stack values, then the listed values as the marked units are
	// found, with the units packed aside and appended behind them.
	n := float64(len(lines))
	f := sc.form[:1+stacks]
	for s, base := range sum {
		f[1+s] = math.Float64bits(float64(base) / n)
	}
	packed, w, listed := sc.packed[:0], uint64(0), 0
	for i, word := range touched {
		touched[i] = 0
		for ; word != 0; word &= word - 1 {
			u := i<<6 | bits.TrailingZeros64(word)
			cu := corr[u]
			if cu == 0 {
				continue
			}
			corr[u] = 0
			s := topo.StackOf(topology.UnitID(u))
			v := float64(sum[s]+cu) / n
			if v == math.Float64frombits(f[1+s]) {
				continue
			}
			f = append(f, math.Float64bits(v))
			w |= uint64(u) << (16 * (listed % 4))
			if listed++; listed%4 == 0 {
				packed = append(packed, w)
				w = 0
			}
		}
	}
	if listed%4 != 0 {
		packed = append(packed, w)
	}
	f[0] = uint64(stacks) | uint64(listed)<<32
	f = append(f, packed...)
	sc.form, sc.packed = f, packed
	return f
}

// lineMinima sets best[s] to the minimum over the location rows of stack
// s's latency, each camp's (rows[1:]) plus pen, and adds it to sum[s], in
// one pass over the stacks. Up to three camps (the paper's C) it reads
// their rows side by side, standing the home's row in for a missing camp:
// home[s]+pen cannot lower a minimum that home[s] bounds, given pen >= 0.
func lineMinima(best, sum []int64, rows [][]int64, pen int64) {
	home := rows[0]
	if len(rows) > 4 {
		for s, b := range home {
			for _, row := range rows[1:] {
				b = min(b, row[s]+pen)
			}
			best[s] = b
			sum[s] += b
		}
		return
	}
	var r [3][]int64
	for i := range r {
		r[i] = home
		if 1+i < len(rows) {
			r[i] = rows[1+i]
		}
	}
	r1, r2, r3 := r[0][:len(home)], r[1][:len(home)], r[2][:len(home)]
	best, sum = best[:len(home)], sum[:len(home)]
	for s, b := range home {
		b = min(b, r1[s]+pen, r2[s]+pen, r3[s]+pen)
		best[s] = b
		sum[s] += b
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
