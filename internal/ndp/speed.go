package ndp

import (
	"abndp/internal/ckpt"
)

// SetCheckpoint attaches a checkpoint-store shard (internal/ckpt) as the
// scheduler's form store: placement decisions read stored costmem stack
// forms in place on a hit and offer the forms they compute on a miss, so
// later runs sharing the same prefix key (config.PrefixKey) skip the
// placement cost kernel entirely. Call before Run, with the shard for
// CheckpointKey(app).
//
// Attaching a shard never changes simulation output: stored forms are the
// kernel's own words (core.CostModel.MemCostForm), lookups verify the full
// hint line list, and the scheduler bypasses the store whenever a fault
// plan installs a dead-unit mask. Passing nil detaches.
func (s *System) SetCheckpoint(sh *ckpt.Shard) {
	s.ckptShard = sh
	if sh == nil {
		s.Sched.SetFormStore(nil) // not a nil *ckpt.Shard in a non-nil interface
		return
	}
	s.Sched.SetFormStore(sh)
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
