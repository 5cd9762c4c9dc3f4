package numa

import (
	"math"
	"testing"

	"repro/internal/memsim"
	"repro/internal/sim"
)

func TestDefaultTopology(t *testing.T) {
	topo := DefaultTopology()
	if topo.HyperthreadsPerSocket() != 40 {
		t.Errorf("hyperthreads/socket = %d, want 40 (2x20 cores SMT2)", topo.HyperthreadsPerSocket())
	}
	if topo.TotalThreads() != 80 {
		t.Errorf("total threads = %d, want 80", topo.TotalThreads())
	}
}

func TestBindingValidate(t *testing.T) {
	good := Binding{CPU: Socket0, Mem: memsim.Tier2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid binding rejected: %v", err)
	}
	if (Binding{CPU: SocketID(5), Mem: memsim.Tier0}).Validate() == nil {
		t.Error("invalid socket accepted")
	}
	if (Binding{CPU: Socket0, Mem: memsim.TierID(7)}).Validate() == nil {
		t.Error("invalid tier accepted")
	}
}

func TestBindingForTier(t *testing.T) {
	for _, id := range memsim.AllTiers() {
		b := BindingForTier(id)
		if b.CPU != Socket0 || b.Mem != id {
			t.Errorf("BindingForTier(%v) = %v", id, b)
		}
		if err := b.Validate(); err != nil {
			t.Errorf("BindingForTier(%v) invalid: %v", id, err)
		}
	}
}

// The probes must recover Table I: this validates the entire latency and
// bandwidth plumbing of the memory simulator end to end (experiment E-T1).
func TestProbesRecoverTableI(t *testing.T) {
	results := ProbeAllTiers()
	want := map[memsim.TierID]struct{ lat, bw float64 }{
		memsim.Tier0: {77.8, 39.3},
		memsim.Tier1: {130.9, 31.6},
		memsim.Tier2: {172.1, 10.7},
		memsim.Tier3: {231.3, 0.47},
	}
	for _, r := range results {
		w := want[r.Tier]
		if rel := math.Abs(r.LatencyNS-w.lat) / w.lat; rel > 0.02 {
			t.Errorf("%v probed latency %.1f ns, want %.1f ns (Table I)", r.Tier, r.LatencyNS, w.lat)
		}
		if rel := math.Abs(r.BandwidthGB-w.bw) / w.bw; rel > 0.02 {
			t.Errorf("%v probed bandwidth %.2f GB/s, want %.2f GB/s (Table I)", r.Tier, r.BandwidthGB, w.bw)
		}
	}
}

func TestProbeBandwidthRespectsMBACap(t *testing.T) {
	sys := newProbeSystem()
	sys.SetBandwidthCap(0.5)
	bw := ProbeBandwidth(sys, memsim.Tier0, 1<<28)
	if rel := math.Abs(bw-39.3/2) / (39.3 / 2); rel > 0.02 {
		t.Errorf("capped bandwidth %.2f GB/s, want ~%.2f", bw, 39.3/2)
	}
}

func TestProbeDefaults(t *testing.T) {
	lat := ProbeIdleLatency(newProbeSystem(), memsim.Tier0, 0)
	if lat <= 0 {
		t.Error("default-accesses latency probe returned nothing")
	}
	bw := ProbeBandwidth(newProbeSystem(), memsim.Tier0, 0)
	if bw <= 0 {
		t.Error("default-bytes bandwidth probe returned nothing")
	}
}

func newProbeSystem() *memsim.System {
	return memsim.NewSystem(sim.NewKernel())
}
