package executor

import "repro/internal/memsim"

// TierCost is one task's footprint on one memory tier.
type TierCost struct {
	// StallLines is the latency-exposed line count by op: Sequential
	// bursts hide most line latency behind prefetching, Random bursts pay
	// it in full. The split per op lets the stall apply the tier's
	// write-latency asymmetry.
	StallLines [2]float64
	// SeqBytes is streaming media traffic by op; it consumes the tier's
	// (Table I) streaming bandwidth at full weight.
	SeqBytes [2]int64
	// RandBytes is scattered media traffic by op. Scattered single-line
	// accesses are latency-bound: they occupy the channel far below the
	// streaming rate, so only a fraction of these bytes is charged to the
	// bandwidth server (their full cost is in StallLines).
	RandBytes [2]int64
}

func (tc TierCost) isZero() bool {
	return tc.StallLines[0] == 0 && tc.StallLines[1] == 0 &&
		tc.SeqBytes[0] == 0 && tc.SeqBytes[1] == 0 &&
		tc.RandBytes[0] == 0 && tc.RandBytes[1] == 0
}

// Profile is the cost footprint of one task, accumulated while the task's
// real computation runs and later replayed by the discrete-event stage
// simulator to obtain virtual time under contention. Costs are kept per
// memory tier so that mixed placements (heap on NVM, shuffle on DRAM, ...)
// charge the right devices.
type Profile struct {
	// CPUNS is pure compute time on the task's core.
	CPUNS float64
	// Tiers holds the per-tier memory footprints, indexed by TierID.
	Tiers [memsim.NumTiers]TierCost
}

// randChannelWeight is the fraction of scattered media bytes charged
// against streaming bandwidth.
const randChannelWeight = 0.05

// Add accumulates other into p (used for run-level totals).
func (p *Profile) Add(other Profile) {
	p.CPUNS += other.CPUNS
	for t := range p.Tiers {
		for i := 0; i < 2; i++ {
			p.Tiers[t].StallLines[i] += other.Tiers[t].StallLines[i]
			p.Tiers[t].SeqBytes[i] += other.Tiers[t].SeqBytes[i]
			p.Tiers[t].RandBytes[i] += other.Tiers[t].RandBytes[i]
		}
	}
}

// randSeqBytes returns the task's total scattered and streaming bytes,
// used by the allocator-contention model.
func (p Profile) randSeqBytes() (randB, seqB float64) {
	for t := range p.Tiers {
		for i := 0; i < 2; i++ {
			randB += float64(p.Tiers[t].RandBytes[i])
			seqB += float64(p.Tiers[t].SeqBytes[i])
		}
	}
	return randB, seqB
}

// stallNS computes the serial memory-stall time of the task on one tier
// when `sharers` tasks are concurrently memory-active there.
func (p Profile) stallNS(t *memsim.Tier, sharers int) float64 {
	tc := p.Tiers[t.Spec.ID]
	return tc.StallLines[memsim.Read]*t.LoadedLatencyNS(memsim.Read, sharers) +
		tc.StallLines[memsim.Write]*t.LoadedLatencyNS(memsim.Write, sharers)
}

// channelUnits computes the bandwidth-server work of the task on tier t.
func (p Profile) channelUnits(t *memsim.Tier) float64 {
	tc := p.Tiers[t.Spec.ID]
	units := 0.0
	for _, op := range []memsim.Op{memsim.Read, memsim.Write} {
		units += t.ChannelUnits(op, memsim.Sequential, tc.SeqBytes[op])
		units += t.ChannelUnits(op, memsim.Random, tc.RandBytes[op]) * randChannelWeight
	}
	return units
}

// touchedTiers lists the tiers the task has any footprint on, in id
// order: ids[:n].
func (p *Profile) touchedTiers() (ids [memsim.NumTiers]memsim.TierID, n int) {
	for t := range p.Tiers {
		if !p.Tiers[t].isZero() {
			ids[n] = memsim.TierID(t)
			n++
		}
	}
	return ids, n
}
