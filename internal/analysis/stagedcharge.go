package analysis

// StagedCharge enforces the two-phase scheduler's staging discipline:
// code reachable from a task's compute path (any function or closure
// taking a *executor.TaskContext) runs concurrently on phase-1 workers
// and must never mutate shared simulation state directly. Tier counters
// go through TaskContext's BurstDelta-based staging, block-manager
// operations through GetBlock/PutBlock (Peek + replay), and shuffle
// writes through PutShuffleChunks — all published by Commit in partition
// order. TaskContext's own methods are the sanctioned staging layer and
// are exempt.
var StagedCharge = &Analyzer{
	Name:     "stagedcharge",
	Doc:      "forbid direct tier/blockmgr/shuffle mutation in task-compute code",
	Severity: SevError,
	Init:     stagedChargeRule.reach,
	Run:      stagedChargeRule.run,
}

var stagedChargeRule = &reachRule{
	entry:  taskEntry,
	exempt: taskCtxMethod,
	table:  forbiddenInTask,
	format: "direct %s in task-compute code: %s",
}

const (
	executorPath = "repro/internal/executor"
	memsimPath   = "repro/internal/memsim"
	blockmgrPath = "repro/internal/blockmgr"
	shufflePath  = "repro/internal/shuffle"
	tieringPath  = "repro/internal/tiering"
)

// forbiddenInTask maps package path -> receiver type -> method -> advice.
var forbiddenInTask = map[string]map[string]map[string]string{
	memsimPath: {
		"Tier": {
			"RecordAccess":  "stage tier charges through TaskContext (BurstDelta deltas commit in partition order)",
			"RecordBurst":   "stage tier charges through TaskContext (BurstDelta deltas commit in partition order)",
			"MergeCounters": "counter merges happen in TaskContext.Commit, in partition order",
		},
		"System": {
			"SetBandwidthCap": "bandwidth caps are driver configuration, not task compute",
		},
	},
	blockmgrPath: {
		"Manager": {
			"Put":        "use TaskContext.PutBlock: puts are staged and replayed at commit",
			"Get":        "use TaskContext.GetBlock: it reads the stage-start snapshot via Peek and stages the hit",
			"Remove":     "block removal mutates LRU state; it belongs to the driver",
			"RemoveAll":  "wholesale block loss is the scheduler's crash path (crashExecutor), never task compute",
			"ReplayHit":  "replays are issued by TaskContext.Commit only",
			"ReplayMiss": "replays are issued by TaskContext.Commit only",
		},
	},
	shufflePath: {
		"Store": {
			"PutChunks":          "use TaskContext.PutShuffleChunks: chunk sets publish at commit, before downstream stages",
			"DropShuffle":        "shuffle cleanup belongs to the driver between jobs",
			"DeregisterExecutor": "map-output loss is the scheduler's crash path (crashExecutor), never task compute",
		},
	},
}

// taskEntry reports whether the node starts a task-compute call graph: a
// function or literal with a *executor.TaskContext parameter.
func taskEntry(n *Node) bool { return n.HasParamType(executorPath, "TaskContext") }

// taskCtxMethod reports whether the node is a method of the staging layer
// itself.
func taskCtxMethod(n *Node) bool { return n.IsMethodOf(executorPath, "TaskContext") }
