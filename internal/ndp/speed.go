package ndp

import (
	"abndp/internal/ckpt"
	"abndp/internal/mem"
	"abndp/internal/task"
)

// SetCheckpoint attaches a checkpoint-store shard (internal/ckpt) as the
// scheduler's precomputed costmem source: placement decisions reuse stored
// vectors on hit and memoize fresh ones on miss, so later runs sharing the
// same prefix key (config.PrefixKey) skip the placement cost kernel
// entirely. Call before Run, with the shard for "app|design|PrefixKey" —
// shards mix-in the app (hints) and design (camp awareness), which the
// prefix key alone does not pin.
//
// Attaching a shard never changes simulation output: stored vectors are
// bit-identical to inline evaluation (core.MemCostVec), lookups verify the
// full hint line list, and the scheduler bypasses the source whenever a
// fault plan installs a dead-unit mask. Passing nil detaches.
func (s *System) SetCheckpoint(sh *ckpt.Shard) {
	s.ckptShard = sh
	if sh == nil {
		s.Sched.SetCostVecSource(nil)
		return
	}
	if s.ckptScratch == nil {
		s.ckptScratch = s.Cost.NewVecScratch()
	}
	s.Sched.SetCostVecSource(s.costVecFor)
}

// Checkpoint returns the attached shard, or nil.
func (s *System) Checkpoint() *ckpt.Shard { return s.ckptShard }

// costVecFor is the scheduler's cost-vector source: store hit, else compute
// inline and memoize. The scheduler only calls it with no dead mask in
// force, so the vector is a pure function of the hint and safe to store.
// A miss allocates only the stored vector; the kernel's scratch is the
// System's. The stored copy owns its own line slice — t's hint lines are
// recycled across barriers.
func (s *System) costVecFor(t *task.Task) []float64 {
	lines := t.Hint.Lines
	h := ckpt.HashLines(lines)
	if v := s.ckptShard.MemVec(h, lines); v != nil {
		return v
	}
	v := make([]float64, s.Topo.Units())
	s.Cost.MemCostVecInto(v, s.ckptScratch, lines)
	s.ckptShard.PutMemVec(h, append([]mem.Line(nil), lines...), v)
	return v
}

// SetParallelWorkers enables the partitioned parallel engine path: n
// background workers precompute placement cost vectors into the attached
// checkpoint shard while the (still strictly serial, still deterministic)
// event loop consumes them. The event queue itself is never sharded — the
// mesh/DRAM backlog coupling gives this model zero safe lookahead, so
// parallelism lives in the one kernel that is a pure function of the hint
// (see docs/PERF.md). Output stays byte-identical: workers only ever store
// values the serial path would compute itself.
//
// Requires a checkpoint shard (SetCheckpoint) and no fault plan; otherwise
// it is a no-op and the run stays fully serial. Call before Run.
func (s *System) SetParallelWorkers(n int) {
	if n <= 0 || s.ckptShard == nil || !s.Cost.DeadFree() {
		return
	}
	s.par = newPrecompute(s.ckptShard, s.Cost, n)
}

// ParallelStats reports the precompute pool's submit counters (zero values
// when the parallel path is off): hints handed to workers and hints dropped
// because the queue was full (dropped hints are computed inline instead —
// a throughput loss, never a correctness one).
func (s *System) ParallelStats() (submitted, dropped int64) {
	if s.par == nil {
		return 0, 0
	}
	return s.par.submitted, s.par.dropped
}
