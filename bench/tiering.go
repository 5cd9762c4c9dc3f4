package bench

import (
	"fmt"

	"repro/internal/blockmgr"
	"repro/internal/executor"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/shuffle"
	"repro/internal/sim"
	"repro/internal/tiering"
)

const (
	migBlocks    = 256
	migBlockSize = 4 << 10
	migEpochs    = 50
)

// microMigrationEpoch measures the host cost of the tiering engine's
// epoch loop: ledger decay, policy planning over a few hundred blocks,
// migration charging/simulation and residency flips. Each iteration
// builds a fresh pool, caches migBlocks blocks under a DRAM budget of
// half the footprint, then drives migEpochs ticks while re-heating a
// rotating window of demoted blocks so every epoch both promotes and
// demotes (the policy's worst case, not its quiet path).
func microMigrationEpoch() {
	churnEpochs("migrationEpoch", tiering.Watermark, 1, 4, migBlocks, migEpochs)
}

const (
	stormExecutors = 4
	stormBlocks    = 4096
	stormEpochs    = 40
)

// microTickStorm is the repository benchmark's tick storm
// (benchmark/wl_tiering.go) as a ledger row: every dynamic policy over
// stormExecutors x stormBlocks cached blocks for stormEpochs ticks — the
// scale at which a tick is dominated by walking the blocks (tracker
// decay, snapshot, forecast, view, candidate sort, mover backlog) and
// not by the few hundred moves it plans.
func microTickStorm() {
	for _, pol := range tiering.AllPolicies() {
		if pol != tiering.Static {
			churnEpochs("tickStorm "+string(pol), pol, stormExecutors, 10, stormBlocks, stormEpochs)
		}
	}
}

// churnEpochs caches blocks per executor under a DRAM budget of half the
// footprint and ticks the engine epochs times, re-heating a rotating
// quarter of the blocks before each tick so the hot set keeps shifting
// and the planner always has both demotions and promotions.
func churnEpochs(name string, pol tiering.PolicyKind, executors, cores, blocks, epochs int) {
	cfg := tiering.DefaultConfig(pol)
	cfg.FastBudgetBytes = int64(blocks) * migBlockSize / 2

	k := sim.NewKernel()
	sys := memsim.NewSystem(k)
	pool := executor.NewPool(executors, cores, numa.BindingForTier(memsim.Tier2), sys, 0)
	eng, err := tiering.NewEngine(cfg, pool, shuffle.NewStore(), executor.DefaultCostModel(), 1)
	if err != nil {
		panic(fmt.Sprintf("bench %s: %v", name, err))
	}
	for _, ex := range pool.Executors {
		for i := 0; i < blocks; i++ {
			ex.Blocks.Put(blockmgr.BlockID{RDD: 1, Partition: i}, i, migBlockSize, 1)
		}
	}
	window := blocks / 4
	for epoch := 0; epoch < epochs; epoch++ {
		for _, ex := range pool.Executors {
			for i := 0; i < window; i++ {
				ex.Blocks.Get(blockmgr.BlockID{RDD: 1, Partition: (epoch*window + i) % blocks})
			}
		}
		// A stage's worth of virtual time between ticks: without it the
		// bandwidth-aware policy's per-epoch byte budget stays zero.
		k.After(1_000_000, func(sim.Time) {})
		k.Run()
		eng.Tick()
	}
	if eng.MigratedBlocks() == 0 {
		panic(fmt.Sprintf("bench %s: churn loop migrated nothing", name))
	}
}
