// Package staged is simlint test input: staging-discipline violations in
// task-compute code. Line positions are pinned by staged.golden.
package staged

import (
	"repro/internal/blockmgr"
	"repro/internal/executor"
	"repro/internal/memsim"
)

// badCompute takes a TaskContext, so it is task-compute code; its direct
// tier and block-manager mutations bypass the staging layer.
func badCompute(ctx *executor.TaskContext, t *memsim.Tier, m *blockmgr.Manager) {
	_ = ctx
	t.RecordBurst(memsim.Read, memsim.Sequential, 64, 1)
	m.Put(blockmgr.BlockID{RDD: 1, Partition: 2}, nil, 64, 1)
	helper(t)
}

// helper is reachable from badCompute, so its direct charge is also
// task-compute code.
func helper(t *memsim.Tier) {
	t.RecordAccess(memsim.Read, 64)
}

// driverCharge is never reached from a TaskContext function; driver code
// may touch tiers directly.
func driverCharge(t *memsim.Tier) {
	t.RecordAccess(memsim.Write, 64)
}

// lambdaCompute hands a task closure to a runner; the closure's direct
// block-manager read bypasses the snapshot staging.
func lambdaCompute(run func(func(ctx *executor.TaskContext))) {
	run(func(ctx *executor.TaskContext) {
		ctx.Blocks.Get(blockmgr.BlockID{})
	})
}

// goodCompute stays on the staging API and is clean.
func goodCompute(ctx *executor.TaskContext) {
	ctx.MemSeq(memsim.Read, 64)
	if _, bytes, items, ok := ctx.GetBlock(blockmgr.BlockID{}); ok {
		ctx.PutBlock(blockmgr.BlockID{RDD: 1}, nil, bytes, items)
	}
}
