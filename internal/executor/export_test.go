package executor

import (
	"repro/internal/blockmgr"
	"repro/internal/memsim"
	"repro/internal/shuffle"
)

// NewTaskContext builds a context with all categories on one tier; rand is
// seeded from (seed, partition) so reruns are bit-identical.
func NewTaskContext(execID, partition int, tier *memsim.Tier, cost CostModel,
	blocks *blockmgr.Manager, shuf *shuffle.Store, seed int64) *TaskContext {
	return NewPlacedTaskContext(execID, partition, tier, tier, tier, cost, blocks, shuf, seed)
}
