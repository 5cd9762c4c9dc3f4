package energy

import (
	"math"
	"strings"
	"testing"

	"repro/internal/memsim"
	"repro/internal/sim"
)

func TestDCPMCheaperPerByteRead(t *testing.T) {
	// The paper's premise in §IV-D: NVM provides less power consumption
	// per access (per byte moved) than DRAM.
	c := DefaultCoefficients()
	dram := c[memsim.DRAM].ReadNJPerLine / float64(memsim.DRAM.LineSize())
	dcpm := c[memsim.DCPM].ReadNJPerLine / float64(memsim.DCPM.LineSize())
	if dcpm >= dram {
		t.Errorf("DCPM read energy/byte %.3f nJ must be below DRAM %.3f nJ", dcpm, dram)
	}
}

func TestDCPMWriteAsymmetry(t *testing.T) {
	c := DefaultCoefficients()[memsim.DCPM]
	if c.WriteNJPerLine/c.ReadNJPerLine < 2 {
		t.Errorf("DCPM write energy %.0f nJ should be >=2x read %.0f nJ",
			c.WriteNJPerLine, c.ReadNJPerLine)
	}
}

func TestBackgroundDominatesLongRuns(t *testing.T) {
	m := NewMeter()
	spec := memsim.DefaultSpecs()[memsim.Tier2]
	counters := memsim.Counters{MediaReads: 1000, MediaWrites: 100}
	r := m.Measure(spec, counters, 10*sim.Second)
	if r.BackgroundJ <= r.DynamicJ {
		t.Errorf("background %.3f J should dominate dynamic %.6f J on a long idle-ish run",
			r.BackgroundJ, r.DynamicJ)
	}
	if math.Abs(r.TotalJ-(r.BackgroundJ+r.DynamicJ)) > 1e-12 {
		t.Error("total != background + dynamic")
	}
}

func TestMeasureBasicNumbers(t *testing.T) {
	m := NewMeter()
	spec := memsim.DefaultSpecs()[memsim.Tier0] // DRAM, 2 DIMMs, 1.1 W each
	counters := memsim.Counters{MediaReads: 1e6, MediaWrites: 5e5}
	r := m.Measure(spec, counters, 2*sim.Second)

	wantDyn := (1e6*15 + 5e5*18) * 1e-9
	if math.Abs(r.DynamicJ-wantDyn) > 1e-9 {
		t.Errorf("dynamic = %v J, want %v J", r.DynamicJ, wantDyn)
	}
	wantBG := 1.1 * 2 * 2.0
	if math.Abs(r.BackgroundJ-wantBG) > 1e-9 {
		t.Errorf("background = %v J, want %v J", r.BackgroundJ, wantBG)
	}
	if math.Abs(r.PerDIMMJ-r.TotalJ/2) > 1e-12 {
		t.Errorf("per-DIMM = %v, want total/2", r.PerDIMMJ)
	}
	if math.Abs(r.AvgPowerWatt-r.TotalJ/2.0) > 1e-12 {
		t.Errorf("avg power = %v, want total/2s", r.AvgPowerWatt)
	}
}

func TestZeroDurationNoPowerDivZero(t *testing.T) {
	m := NewMeter()
	spec := memsim.DefaultSpecs()[memsim.Tier0]
	r := m.Measure(spec, memsim.Counters{}, 0)
	if r.AvgPowerWatt != 0 || r.TotalJ != 0 {
		t.Errorf("zero-duration zero-access run must be zero energy, got %+v", r)
	}
}

// The headline effect of Figure 2 (bottom): the same workload bound to DCPM
// consumes substantially more total energy than bound to DRAM because it
// runs longer, even though DCPM is cheaper per byte.
func TestDCPMTotalEnergyExceedsDRAMDespiteCheaperAccesses(t *testing.T) {
	m := NewMeter()
	specs := memsim.DefaultSpecs()
	// Same logical work: 10 GB read, 2 GB written.
	k := sim.NewKernel()
	sys := memsim.NewSystem(k)
	for _, id := range []memsim.TierID{memsim.Tier0, memsim.Tier2} {
		tr := sys.Tier(id)
		tr.RecordAccess(memsim.Read, 10<<30)
		tr.RecordAccess(memsim.Write, 2<<30)
	}
	// DCPM run stretched ~1.8x (the paper's ~77% slowdown).
	dram := m.Measure(specs[memsim.Tier0], sys.Tier(memsim.Tier0).Counters(), 10*sim.Second)
	dcpm := m.Measure(specs[memsim.Tier2], sys.Tier(memsim.Tier2).Counters(), 18*sim.Second)
	ratio := dcpm.TotalJ / dram.TotalJ
	if ratio < 1.5 {
		t.Errorf("DCPM/DRAM total energy ratio %.2f too small; paper reports DRAM ~64%% less", ratio)
	}
}

func TestCustomCoefficientsAndPanic(t *testing.T) {
	m := &Meter{coeffs: map[memsim.Kind]Coefficients{
		memsim.DRAM: {ReadNJPerLine: 1, WriteNJPerLine: 1, BackgroundWattsPerDIMM: 1},
	}}
	spec := memsim.DefaultSpecs()[memsim.Tier2] // DCPM has no coefficients here
	defer func() {
		if recover() == nil {
			t.Error("missing coefficients did not panic")
		}
	}()
	m.Measure(spec, memsim.Counters{}, sim.Second)
}

func TestReportString(t *testing.T) {
	m := NewMeter()
	spec := memsim.DefaultSpecs()[memsim.Tier2]
	r := m.Measure(spec, memsim.Counters{MediaReads: 100, MediaWrites: 50}, sim.Second)
	s := r.String()
	for _, want := range []string{"Tier 2", "DCPM", "4 DIMMs", "J/DIMM"} {
		if !strings.Contains(s, want) {
			t.Errorf("report string missing %q: %s", want, s)
		}
	}
}

func TestPerTierBackgroundOrdering(t *testing.T) {
	// Over the same window, the 4-DIMM DCPM group burns more background
	// energy than the 2-DIMM one, and both beat DRAM.
	m := NewMeter()
	specs := memsim.DefaultSpecs()
	none := memsim.Counters{}
	t0 := m.Measure(specs[memsim.Tier0], none, sim.Second).BackgroundJ
	t2 := m.Measure(specs[memsim.Tier2], none, sim.Second).BackgroundJ
	t3 := m.Measure(specs[memsim.Tier3], none, sim.Second).BackgroundJ
	if !(t2 > t3 && t3 > t0) {
		t.Fatalf("background ordering wrong: T0=%v T2=%v T3=%v", t0, t2, t3)
	}
}
