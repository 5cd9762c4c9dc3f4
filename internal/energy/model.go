// Package energy accounts DIMM-level energy for the DRAM and Optane DCPM
// device groups, reproducing the paper's Figure 2 (bottom) comparison.
//
// The model is E = E_dynamic + E_background:
//
//	E_dynamic    = media_read_lines * E_read + media_write_lines * E_write
//	E_background = P_background * DIMMs * T_run
//
// Per the paper (§IV-D), Optane DCPM draws *less* power per access than
// DRAM per byte moved, but its total energy ends up higher because the same
// job occupies the device for much longer — the background term dominates.
// Coefficients follow published Optane DCPM characterizations (the paper's
// refs [29], [35]): DCPM background power is roughly 3x a DDR4 DIMM's, and
// its media writes are several times as expensive as reads.
package energy

import (
	"fmt"

	"repro/internal/memsim"
	"repro/internal/sim"
)

// Coefficients hold the per-technology energy parameters.
type Coefficients struct {
	// ReadNJPerLine / WriteNJPerLine are dynamic energies per media line
	// transfer, in nanojoules. Lines are 64 B (DRAM) or 256 B (DCPM).
	ReadNJPerLine  float64
	WriteNJPerLine float64
	// BackgroundWattsPerDIMM is static power drawn whether or not the
	// device is being accessed (refresh for DRAM; controller, media
	// management and standby for DCPM).
	BackgroundWattsPerDIMM float64
}

// DefaultCoefficients returns the calibrated per-technology parameters.
func DefaultCoefficients() map[memsim.Kind]Coefficients {
	return map[memsim.Kind]Coefficients{
		memsim.DRAM: {
			ReadNJPerLine:          15, // 0.234 nJ/B over a 64 B line
			WriteNJPerLine:         18,
			BackgroundWattsPerDIMM: 1.1,
		},
		memsim.DCPM: {
			ReadNJPerLine:          42,  // 0.164 nJ/B over a 256 B XPLine
			WriteNJPerLine:         130, // media writes are ~3x reads
			BackgroundWattsPerDIMM: 3.0,
		},
	}
}

// Meter computes energy for tiers of a memory system over a run.
type Meter struct {
	coeffs map[memsim.Kind]Coefficients
}

// NewMeter returns a meter with the default coefficients.
func NewMeter() *Meter { return &Meter{coeffs: DefaultCoefficients()} }

// Report is the energy breakdown for one device group over one run.
type Report struct {
	Tier         memsim.TierID
	Kind         memsim.Kind
	DIMMs        int
	DynamicJ     float64
	BackgroundJ  float64
	TotalJ       float64
	PerDIMMJ     float64
	AvgPowerWatt float64
}

// String renders a compact single-line summary.
func (r Report) String() string {
	return fmt.Sprintf("%s (%s, %d DIMMs): total %.2f J (dyn %.2f, bg %.2f), %.2f J/DIMM, avg %.2f W",
		r.Tier, r.Kind, r.DIMMs, r.TotalJ, r.DynamicJ, r.BackgroundJ, r.PerDIMMJ, r.AvgPowerWatt)
}

// Measure computes the energy consumed by one tier's device group given its
// access counters over a run of the given virtual duration.
func (m *Meter) Measure(spec memsim.TierSpec, counters memsim.Counters, elapsed sim.Time) Report {
	c, ok := m.coeffs[spec.Kind]
	if !ok {
		panic(fmt.Sprintf("energy: no coefficients for %v", spec.Kind))
	}
	dyn := (float64(counters.MediaReads)*c.ReadNJPerLine +
		float64(counters.MediaWrites)*c.WriteNJPerLine) * 1e-9
	bg := c.BackgroundWattsPerDIMM * float64(spec.DIMMs) * elapsed.Seconds()
	total := dyn + bg
	r := Report{
		Tier:        spec.ID,
		Kind:        spec.Kind,
		DIMMs:       spec.DIMMs,
		DynamicJ:    dyn,
		BackgroundJ: bg,
		TotalJ:      total,
	}
	if spec.DIMMs > 0 {
		r.PerDIMMJ = total / float64(spec.DIMMs)
	}
	if s := elapsed.Seconds(); s > 0 {
		r.AvgPowerWatt = total / s
	}
	return r
}
