// Package tierledger is simlint test input: direct ledger mutation from
// task-compute call graphs. Line positions are pinned by
// tierledger.golden.
package tierledger

import (
	"repro/internal/blockmgr"
	"repro/internal/executor"
	"repro/internal/heat"
	"repro/internal/memsim"
)

// badCompute mutates the hotness tracker and copy ledgers from
// task-compute code.
func badCompute(ctx *executor.TaskContext, tr *heat.AccessTracker, t *memsim.Tier) {
	ctx.CPU(100)
	tr.BlockAccessed(blockmgr.BlockID{RDD: 1, Partition: 2}, 64)
	t.MergeCopies(memsim.CopyCounters{LocalChunks: 1})
	tickHelper(tr)
}

// tickHelper is reachable from badCompute, so its tick call is tainted
// through the shared call graph even though it has no ctx parameter.
func tickHelper(tr *heat.AccessTracker) {
	tr.Tick()
}

// badResidency rebinds chunk residency and landing tiers mid-task.
func badResidency(ctx *executor.TaskContext, cs *blockmgr.ChunkStore, m *blockmgr.Manager) {
	ctx.CPU(100)
	cs.ChunkPut(1, 2, 64)
	m.SetLandingTier(memsim.Tier2)
	m.SetResidency(blockmgr.BlockID{RDD: 1}, memsim.Tier0)
}

// badHeatEpoch drives the heat subsystem's epoch state — the idle
// tracker, the snapshot history and the mover queue — from task-compute
// code: all of that belongs to the tiering engine's tick.
func badHeatEpoch(ctx *executor.TaskContext, tr *heat.IdleTracker, h *heat.History, mv *heat.Mover) {
	ctx.CPU(100)
	tr.BlockPut(blockmgr.BlockID{RDD: 2, Partition: 0}, 128)
	tr.Tick()
	h.Push(tr.Snapshot())
	mv.Enqueue(heat.MoveRequest{ID: blockmgr.BlockID{RDD: 2}, Bytes: 128, From: memsim.Tier0, To: memsim.Tier2})
	mv.NextBatch(nil)
}

// driverWiring is driver code (no TaskContext anywhere in its graph):
// observer wiring and engine-driven ticks are the sanctioned paths, so
// nothing here is flagged.
func driverWiring(m *blockmgr.Manager, tr *heat.AccessTracker, h *heat.History) {
	m.SetObserver(tr)
	tr.Tick()
	h.Push(tr.Snapshot())
}

// badQuota charges the per-tenant quota and the admission capacity
// ledger from task-compute code: quota charges belong to the block
// manager's commit-path placement and the admission engine.
func badQuota(ctx *executor.TaskContext, q *blockmgr.TenantQuota, m *blockmgr.Manager, cl *memsim.CapacityLedger) {
	ctx.CPU(100)
	if _, err := q.Place(blockmgr.BlockID{RDD: 3, Partition: 1}, 128); err != nil {
		return
	}
	q.Release(memsim.Tier0, 128)
	q.Move(memsim.Tier0, memsim.Tier2, 64)
	m.SetQuota(q)
	if err := cl.Reserve(256); err == nil {
		cl.Release(256)
	}
	sessionHelper(q)
}

// sessionHelper is reachable from badQuota, so its job-session calls are
// tainted through the shared call graph despite having no ctx parameter.
func sessionHelper(q *blockmgr.TenantQuota) {
	q.BeginJob()
	q.ReleaseHoldings(q.EndJob())
}

// admissionWiring is driver code: reserve-at-admit, budget setup and job
// sessions on the driver goroutine are the sanctioned paths, so nothing
// here is flagged.
func admissionWiring(q *blockmgr.TenantQuota) {
	cl := memsim.NewCapacityLedger(1 << 20)
	if err := cl.Reserve(512); err == nil {
		q.BeginJob()
		q.ReleaseHoldings(q.EndJob())
		cl.Release(512)
	}
}
