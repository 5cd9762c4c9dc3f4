package analysis

import (
	"strings"
)

// TierLedger protects the tiering ledgers PR 5 and PR 6 introduced — the
// hotness trackers (heat.AccessTracker and heat.IdleTracker, which
// replaced the flat EWMA ledger), chunk residency (blockmgr.ChunkStore
// and the manager's residency table), and the copy ledger
// (memsim.CopyCounters) — plus the multi-tenant accounting PR 8 added
// (blockmgr.TenantQuota and memsim.CapacityLedger) and the heat
// subsystem's epoch state (the snapshot History and the rate-limited
// Mover queue), the same way stagedcharge protects the tier counters:
// they may only be mutated through the sanctioned paths. Hotness updates
// arrive via the block manager's observer dispatch, tracker ticks,
// history pushes and mover traffic via the tiering engine's epoch tick,
// residency via the shuffle store's ledger callbacks and the tiering
// engine's migrations, copy counters via TaskContext.Commit's staged
// merge, and quota/capacity charges via the block manager's commit-path
// placement and the admission engine's driver goroutine. A direct
// mutation from a task-compute call graph (any function reachable from a
// *executor.TaskContext parameter) or from a workload implementation
// corrupts the ledgers the migration policies and the copy study read,
// without tripping any test that only checks virtual time.
//
// The owning packages (tiering, heat, blockmgr, shuffle, memsim) and
// TaskContext's own methods are the sanctioned paths and are exempt.
var TierLedger = &Analyzer{
	Name:     "tierledger",
	Doc:      "forbid direct hotness/residency/copy-ledger mutation outside the observer and staged-commit paths",
	Severity: SevError,
	Init:     tierLedgerRule.reach,
	Run:      tierLedgerRule.run,
}

var tierLedgerRule = &reachRule{
	entry:  tlEntry,
	exempt: tlExempt,
	table:  ledgerMutators,
	format: "direct %s from a task or workload call graph: %s",
}

// ledgerMutators maps package path -> receiver type -> method -> advice.
var ledgerMutators = map[string]map[string]map[string]string{
	heatPath: {
		"AccessTracker": {
			"BlockAccessed": "hotness updates arrive via the block manager's observer dispatch (SetObserver), never directly",
			"BlockPut":      "hotness updates arrive via the block manager's observer dispatch (SetObserver), never directly",
			"BlockEvicted":  "hotness updates arrive via the block manager's observer dispatch (SetObserver), never directly",
			"BlockDropped":  "hotness updates arrive via the block manager's observer dispatch (SetObserver), never directly",
			"Tick":          "tracker epochs advance only in the tiering engine's tick, not task or workload code",
		},
		"IdleTracker": {
			"BlockAccessed": "hotness updates arrive via the block manager's observer dispatch (SetObserver), never directly",
			"BlockPut":      "hotness updates arrive via the block manager's observer dispatch (SetObserver), never directly",
			"BlockEvicted":  "hotness updates arrive via the block manager's observer dispatch (SetObserver), never directly",
			"BlockDropped":  "hotness updates arrive via the block manager's observer dispatch (SetObserver), never directly",
			"Tick":          "tracker epochs advance only in the tiering engine's tick, not task or workload code",
		},
		"History": {
			"Push": "heat history snapshots are recorded once per epoch by the tiering engine's tick",
		},
		"Mover": {
			"Enqueue":   "migration requests flow from the tiering engine's rate-limit step, never from task or workload code",
			"NextBatch": "the mover's per-epoch budget is drained by the tiering engine's tick, never from task or workload code",
		},
	},
	blockmgrPath: {
		"ChunkStore": {
			"ChunkPut":     "chunk residency is maintained by the shuffle store's ledger callbacks (SetLedger), driven by partition-ordered commits",
			"ChunkDropped": "chunk residency is maintained by the shuffle store's ledger callbacks (SetLedger), driven by partition-ordered commits",
		},
		"Manager": {
			"SetResidency":   "block residency moves only when the tiering engine applies a migration plan",
			"SetLandingTier": "landing tiers are rebound by the tiering engine and driver wiring, never mid-task",
			"SetQuota":       "tenant quotas are attached at cluster construction and crash replacement, never mid-task",
		},
		"TenantQuota": {
			"Place":           "tenant-quota charges happen inside the block manager's commit-path placement, never directly",
			"Release":         "tenant-quota charges happen inside the block manager's commit-path placement, never directly",
			"Move":            "cross-tier quota transfers belong to the tiering engine's migration apply step",
			"BeginJob":        "job sessions open and settle on the admission engine's driver goroutine",
			"EndJob":          "job sessions open and settle on the admission engine's driver goroutine",
			"ReleaseHoldings": "job sessions open and settle on the admission engine's driver goroutine",
		},
	},
	memsimPath: {
		"Tier": {
			"MergeCopies": "copy-ledger deltas are staged in the task context and merged by Commit in partition order",
		},
		"CopyCounters": {
			"Add": "copy-ledger deltas are staged in the task context and merged by Commit in partition order",
		},
		"CapacityLedger": {
			"Reserve": "DRAM admission reservations are made and released by the admission engine, never from task or workload code",
			"Release": "DRAM admission reservations are made and released by the admission engine, never from task or workload code",
		},
	},
}

// ledgerOwnerPkgs are the packages whose own code is the sanctioned
// mutation path.
var ledgerOwnerPkgs = map[string]bool{
	tieringPath:  true,
	heatPath:     true,
	blockmgrPath: true,
	shufflePath:  true,
	memsimPath:   true,
}

const heatPath = "repro/internal/heat"

// tlExempt reports whether the node is a sanctioned mutation path: the
// staging layer (TaskContext methods) or the ledger-owning packages
// themselves.
func tlExempt(n *Node) bool {
	return taskCtxMethod(n) || ledgerOwnerPkgs[n.Pkg.Path]
}

// tlEntry marks the call graphs the ledgers must stay out of reach of:
// task-compute entries (like stagedcharge) and every workload
// implementation — workloads describe computation shapes and must not
// reach into the engine's accounting.
func tlEntry(n *Node) bool {
	if taskEntry(n) {
		return true
	}
	return n.Pkg.Path == workloadsPath || strings.HasSuffix(n.Pkg.Path, "/workloads")
}

const workloadsPath = "repro/internal/workloads"
