package memsim

import (
	"fmt"

	"repro/internal/sim"
)

// Tier is the runtime state of one memory access scenario: a bandwidth
// server (the shared channel + inter-socket link), access counters and the
// loaded-latency model.
type Tier struct {
	Spec     TierSpec
	server   *sim.SharedServer
	counters Counters
	// copies is the observational shuffle-copy ledger (see copy.go); it
	// never feeds the timing or energy models.
	copies CopyCounters
}

func newTier(k *sim.Kernel, spec TierSpec) *Tier {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return &Tier{
		Spec:   spec,
		server: sim.NewSharedServer(k, spec.Name, spec.BandwidthBytes),
	}
}

// Server exposes the tier's bandwidth resource for the executor model.
func (t *Tier) Server() *sim.SharedServer { return t.server }

// Counters returns a snapshot of the tier's access counters.
func (t *Tier) Counters() Counters { return t.counters }

// Lines returns the number of media-granularity line transfers needed for a
// burst of the given size. Every non-empty burst touches at least one line.
func (t *Tier) Lines(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	line := t.Spec.Kind.LineSize()
	return (bytes + line - 1) / line
}

// RecordAccess counts a logical access burst against the tier. It returns
// the number of media lines transferred so callers can feed the timing
// model without recomputing. Sub-line writes are amplified to full lines at
// the media, which is visible in MediaWriteBytes (the DCPM write
// amplification effect).
func (t *Tier) RecordAccess(op Op, bytes int64) int64 {
	if bytes < 0 {
		panic(fmt.Sprintf("memsim: negative access size %d on %s", bytes, t.Spec.Name))
	}
	if bytes == 0 {
		return 0
	}
	lines := t.Lines(bytes)
	mediaBytes := lines * t.Spec.Kind.LineSize()
	switch op {
	case Read:
		t.counters.ReadOps++
		t.counters.ReadBytes += bytes
		t.counters.MediaReads += lines
		t.counters.MediaReadBytes += mediaBytes
	case Write:
		t.counters.WriteOps++
		t.counters.WriteBytes += bytes
		t.counters.MediaWrites += lines
		t.counters.MediaWriteBytes += mediaBytes
	default:
		panic(fmt.Sprintf("memsim: unknown op %d", op))
	}
	return lines
}

// BurstDelta computes the counter delta and media line count of a burst of
// `items` logical accesses moving `bytes` in total, without touching the
// tier's counters. For Sequential bursts the media transfers bytes/lineSize
// lines (prefetch-friendly streaming); for Random bursts every item touches
// at least one full line, so small scattered records amplify media traffic —
// the effect that makes shuffle- and graph-heavy workloads hammer the
// NVDIMM media counters in the paper's Figure 2 (middle).
//
// The split from RecordBurst exists for concurrent task execution: BurstDelta
// depends only on the immutable tier spec, so phase-1 workers call it from
// many goroutines and accumulate the deltas task-locally; MergeCounters
// publishes them at commit time.
func (t *Tier) BurstDelta(op Op, pattern Pattern, bytes, items int64) (Counters, int64) {
	if bytes < 0 || items < 0 {
		panic(fmt.Sprintf("memsim: negative burst (%d bytes, %d items) on %s", bytes, items, t.Spec.Name))
	}
	if bytes == 0 || items == 0 {
		return Counters{}, 0
	}
	line := t.Spec.Kind.LineSize()
	var lines int64
	if pattern == Random {
		per := (bytes + items - 1) / items // ceil bytes per item
		linesPerItem := (per + line - 1) / line
		if linesPerItem < 1 {
			linesPerItem = 1
		}
		lines = items * linesPerItem
	} else {
		lines = (bytes + line - 1) / line
	}
	mediaBytes := lines * line
	var d Counters
	switch op {
	case Read:
		d.ReadOps = items
		d.ReadBytes = bytes
		d.MediaReads = lines
		d.MediaReadBytes = mediaBytes
	case Write:
		d.WriteOps = items
		d.WriteBytes = bytes
		d.MediaWrites = lines
		d.MediaWriteBytes = mediaBytes
	default:
		panic(fmt.Sprintf("memsim: unknown op %d", op))
	}
	return d, lines
}

// MergeCounters folds a task-local counter delta into the tier. Counter
// merging is commutative integer addition, so the final totals are
// independent of merge order; the scheduler still merges in partition order
// to keep the whole commit path deterministic by construction.
func (t *Tier) MergeCounters(d Counters) { t.counters.Add(d) }

// RecordBurst counts a batch of `items` logical accesses moving `bytes` in
// total against the tier's counters and returns the media line count. It is
// BurstDelta + MergeCounters in one step, for callers that own the tier
// exclusively (probes, tests, the sequential replay path).
func (t *Tier) RecordBurst(op Op, pattern Pattern, bytes, items int64) int64 {
	d, lines := t.BurstDelta(op, pattern, bytes, items)
	t.counters.Add(d)
	return lines
}

// LoadedLatencyNS returns the effective per-line access latency when
// `sharers` accessors are concurrently active on the tier (including the
// one asking). The model is linear in extra sharers — a first-order queuing
// approximation — with a technology-dependent slope, and applies the
// read/write asymmetry factor for writes.
func (t *Tier) LoadedLatencyNS(op Op, sharers int) float64 {
	lat := t.Spec.IdleLatencyNS
	if op == Write {
		lat *= t.Spec.WriteLatencyFactor
	}
	if sharers > 1 {
		lat *= 1 + t.Spec.ContentionFactor*float64(sharers-1)
	}
	return lat
}

// ChannelUnits converts a logical transfer into bandwidth-server work
// units. Write traffic is inflated by the inverse write-bandwidth factor
// for its pattern, so that a byte written consumes proportionally more
// channel time on asymmetric media (DCPM streams writes at ~70% of read
// bandwidth but sustains only ~35% on scattered stores).
func (t *Tier) ChannelUnits(op Op, pattern Pattern, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	if op == Write {
		if pattern == Sequential {
			return float64(bytes) / t.Spec.SeqWriteBandwidthFactor
		}
		return float64(bytes) / t.Spec.WriteBandwidthFactor
	}
	return float64(bytes)
}

// SetBandwidthCap throttles the tier to frac of its peak bandwidth,
// emulating Intel MBA. frac is clamped to (0,1].
func (t *Tier) SetBandwidthCap(frac float64) { t.server.SetCapFraction(frac) }

// System bundles the four tiers over one simulation kernel.
type System struct {
	kernel *sim.Kernel
	tiers  [NumTiers]*Tier
}

// NewSystem builds the paper's testbed memory system with DefaultSpecs.
func NewSystem(k *sim.Kernel) *System {
	return NewSystemWithSpecs(k, DefaultSpecs())
}

// NewSystemWithSpecs builds a memory system from custom tier specs
// (used by ablation benchmarks that perturb latency or bandwidth).
func NewSystemWithSpecs(k *sim.Kernel, specs [NumTiers]TierSpec) *System {
	s := &System{kernel: k}
	for i, spec := range specs {
		s.tiers[i] = newTier(k, spec)
	}
	return s
}

// Kernel returns the simulation kernel the system is bound to.
func (s *System) Kernel() *sim.Kernel { return s.kernel }

// Tier returns the runtime state for the given tier id.
func (s *System) Tier(id TierID) *Tier {
	if !id.Valid() {
		panic(fmt.Sprintf("memsim: invalid tier id %d", id))
	}
	return s.tiers[id]
}

// SetBandwidthCap applies an MBA-style throttle to every tier.
func (s *System) SetBandwidthCap(frac float64) {
	for _, t := range s.tiers {
		t.SetBandwidthCap(frac)
	}
}

// Snapshot returns the counters of all tiers.
func (s *System) Snapshot() [NumTiers]Counters {
	var out [NumTiers]Counters
	for i, t := range s.tiers {
		out[i] = t.Counters()
	}
	return out
}
