package tiering

import (
	"repro/internal/memsim"
	"repro/internal/sim"
)

// ReplayPlan re-prices a recorded migration history on a fresh memory
// system, independently of the engine's staged charge path: every move
// is a sequential read of the source tier plus a sequential write of the
// destination tier, recorded directly against tier counters. The result
// must equal Engine.MigrationCounters for the run that produced the
// plans — the reference the residency-invariant test compares the
// engine's accounting against: the declarative meaning of a plan.
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
