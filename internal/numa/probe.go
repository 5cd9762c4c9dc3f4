package numa

import (
	"repro/internal/memsim"
	"repro/internal/sim"
)

// ProbeResult is one row of Table I as recovered by the microbenchmarks.
type ProbeResult struct {
	Tier        memsim.TierID
	LatencyNS   float64 // idle access latency, pointer-chase
	BandwidthGB float64 // peak streaming bandwidth, GB/s (decimal)
}

// ProbeIdleLatency measures a tier's unloaded access latency the way
// Intel MLC does: a long chain of dependent single-line loads, so each
// access pays the full round trip. The result is total virtual time over
// the number of accesses.
func ProbeIdleLatency(sys *memsim.System, tier memsim.TierID, accesses int) float64 {
	if accesses <= 0 {
		accesses = 1 << 16
	}
	t := sys.Tier(tier)
	line := t.Spec.Kind.LineSize()
	totalNS := 0.0
	for i := 0; i < accesses; i++ {
		t.RecordAccess(memsim.Read, line)
		// Dependent loads: one sharer, full random-access latency
		// exposure, negligible bandwidth component (single line).
		totalNS += t.LoadedLatencyNS(memsim.Read, 1) * memsim.Random.LatencyExposure()
	}
	return totalNS / float64(accesses)
}

// ProbeBandwidth measures a tier's peak streaming bandwidth: a single
// large sequential read drained through the tier's bandwidth server on the
// simulation kernel. Returns GB/s (decimal, matching Table I units).
func ProbeBandwidth(sys *memsim.System, tier memsim.TierID, bytes int64) float64 {
	if bytes <= 0 {
		bytes = 1 << 30
	}
	t := sys.Tier(tier)
	t.RecordAccess(memsim.Read, bytes)
	k := sys.Kernel()
	start := k.Now()
	var done sim.Time
	t.Server().Submit(t.ChannelUnits(memsim.Read, memsim.Sequential, bytes), func(now sim.Time) { done = now })
	k.Run()
	elapsed := (done - start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / elapsed / 1e9
}

// ProbeAllTiers regenerates Table I by probing every tier of a fresh
// system per probe (so probes do not contend with each other).
func ProbeAllTiers() []ProbeResult {
	out := make([]ProbeResult, 0, int(memsim.NumTiers))
	for _, id := range memsim.AllTiers() {
		latSys := memsim.NewSystem(sim.NewKernel())
		bwSys := memsim.NewSystem(sim.NewKernel())
		out = append(out, ProbeResult{
			Tier:        id,
			LatencyNS:   ProbeIdleLatency(latSys, id, 4096),
			BandwidthGB: ProbeBandwidth(bwSys, id, 1<<28),
		})
	}
	return out
}
