package tiering

import (
	"repro/internal/memsim"
	"repro/internal/sim"
)

// PlannedMove is one recorded migration: which executor moved which
// block, how many bytes, and between which tiers.
type PlannedMove struct {
	Exec int
	Move
}

// EpochPlan records the moves of one epoch tick, in the order they were
// planned (executor slot order, plan order within an executor).
type EpochPlan struct {
	Epoch int
	At    sim.Time
	Moves []PlannedMove
}

// ReplayPlan re-prices a recorded migration history on a fresh memory
// system, independently of the engine's staged charge path: every move
// is a sequential read of the source tier plus a sequential write of the
// destination tier, recorded directly against tier counters. The result
// must equal Engine.MigrationCounters for the run that produced the
// plans — the residency-invariant test that pins the engine's accounting
// to the declarative meaning of a plan.
func ReplayPlan(plans []EpochPlan, specs [memsim.NumTiers]memsim.TierSpec) [memsim.NumTiers]memsim.Counters {
	sys := memsim.NewSystemWithSpecs(sim.NewKernel(), specs)
	for _, p := range plans {
		for _, m := range p.Moves {
			sys.Tier(m.From).RecordBurst(memsim.Read, memsim.Sequential, m.Bytes, 1)
			sys.Tier(m.To).RecordBurst(memsim.Write, memsim.Sequential, m.Bytes, 1)
		}
	}
	return sys.Snapshot()
}
