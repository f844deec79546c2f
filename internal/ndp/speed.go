package ndp

import (
	"abndp/internal/ckpt"
	"abndp/internal/task"
)

// SetCheckpoint attaches a checkpoint-store shard (internal/ckpt) as the
// scheduler's precomputed costmem source: placement decisions reuse stored
// vectors on hit and memoize fresh ones on miss, so later runs sharing the
// same prefix key (config.PrefixKey) skip the placement cost kernel
// entirely. Call before Run, with the shard for CheckpointKey(app).
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
		s.ckptVec = make([]float64, s.Topo.Units())
	}
	s.Sched.SetCostVecSource(s.costVecFor)
}

// CheckpointKey returns the checkpoint-store shard key of a run of app on
// this System: "app|design|PrefixKey". A shard mixes in the app (hints)
// and the design (camp awareness), which the prefix key alone does not
// pin: designs C and O share a prefix key, and only O is camp-aware.
func (s *System) CheckpointKey(app string) string {
	return app + "|" + s.Design.String() + "|" + s.Cfg.PrefixKey()
}

// Checkpoint returns the attached shard, or nil.
func (s *System) Checkpoint() *ckpt.Shard { return s.ckptShard }

// costVecFor is the scheduler's cost-vector source: store hit, else compute
// inline and memoize. The scheduler only calls it with no dead mask in
// force, so the vector is a pure function of the hint and safe to store.
// A miss scores into the System's vector and kernel scratch, which the
// scheduler reads only within the Place call that asked; the shard copies
// the lines and the vector if it stores them, so a miss the store rejects
// allocates nothing.
func (s *System) costVecFor(t *task.Task) []float64 {
	lines := t.Hint.Lines
	h := ckpt.HashLines(lines)
	if v := s.ckptShard.MemVec(h, lines); v != nil {
		return v
	}
	s.Cost.MemCostVecInto(s.ckptVec, s.ckptScratch, lines)
	s.ckptShard.PutMemVec(h, lines, s.ckptVec)
	return s.ckptVec
}
