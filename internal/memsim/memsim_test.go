package memsim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestDefaultSpecsMatchTableI(t *testing.T) {
	specs := DefaultSpecs()
	want := []struct {
		id  TierID
		lat float64
		bw  float64 // GB/s (decimal, as reported)
	}{
		{Tier0, 77.8, 39.3},
		{Tier1, 130.9, 31.6},
		{Tier2, 172.1, 10.7},
		{Tier3, 231.3, 0.47},
	}
	for _, w := range want {
		s := specs[w.id]
		if s.IdleLatencyNS != w.lat {
			t.Errorf("%v idle latency = %v, want %v (Table I)", w.id, s.IdleLatencyNS, w.lat)
		}
		if math.Abs(s.BandwidthBytes-w.bw*1e9) > 1 {
			t.Errorf("%v bandwidth = %v, want %v GB/s (Table I)", w.id, s.BandwidthBytes, w.bw)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%v spec invalid: %v", w.id, err)
		}
	}
}

func TestSpecsMonotonicLatency(t *testing.T) {
	specs := DefaultSpecs()
	for i := 1; i < int(NumTiers); i++ {
		if specs[i].IdleLatencyNS <= specs[i-1].IdleLatencyNS {
			t.Errorf("tier %d latency %v not greater than tier %d latency %v",
				i, specs[i].IdleLatencyNS, i-1, specs[i-1].IdleLatencyNS)
		}
		if specs[i].BandwidthBytes >= specs[i-1].BandwidthBytes {
			t.Errorf("tier %d bandwidth %v not lower than tier %d bandwidth %v",
				i, specs[i].BandwidthBytes, i-1, specs[i-1].BandwidthBytes)
		}
	}
}

func TestTierKinds(t *testing.T) {
	specs := DefaultSpecs()
	if specs[Tier0].Kind != DRAM || specs[Tier1].Kind != DRAM {
		t.Error("tiers 0-1 must be DRAM")
	}
	if specs[Tier2].Kind != DCPM || specs[Tier3].Kind != DCPM {
		t.Error("tiers 2-3 must be DCPM")
	}
	if specs[Tier0].Remote || specs[Tier2].Remote {
		t.Error("tiers 0 and 2 are local scenarios")
	}
	if !specs[Tier1].Remote || !specs[Tier3].Remote {
		t.Error("tiers 1 and 3 are remote scenarios")
	}
	// DIMM asymmetry of the testbed: 4 NVDIMMs local group, 2 remote.
	if specs[Tier2].DIMMs != 4 || specs[Tier3].DIMMs != 2 {
		t.Errorf("NVM DIMM asymmetry wrong: %d/%d, want 4/2",
			specs[Tier2].DIMMs, specs[Tier3].DIMMs)
	}
}

func TestLineSize(t *testing.T) {
	if DRAM.LineSize() != 64 {
		t.Errorf("DRAM line = %d, want 64", DRAM.LineSize())
	}
	if DCPM.LineSize() != 256 {
		t.Errorf("DCPM XPLine = %d, want 256", DCPM.LineSize())
	}
}

func TestRecordAccessCounters(t *testing.T) {
	sys := NewSystem(sim.NewKernel())
	tr := sys.Tier(Tier2) // DCPM, 256B lines

	lines := tr.RecordAccess(Read, 1024)
	if lines != 4 {
		t.Fatalf("1024B read on DCPM = %d lines, want 4", lines)
	}
	lines = tr.RecordAccess(Write, 100) // sub-line write amplifies
	if lines != 1 {
		t.Fatalf("100B write = %d lines, want 1", lines)
	}
	c := tr.Counters()
	if c.ReadOps != 1 || c.WriteOps != 1 {
		t.Fatalf("ops = %d/%d, want 1/1", c.ReadOps, c.WriteOps)
	}
	if c.ReadBytes != 1024 || c.WriteBytes != 100 {
		t.Fatalf("bytes = %d/%d, want 1024/100", c.ReadBytes, c.WriteBytes)
	}
	if c.MediaWriteBytes != 256 {
		t.Fatalf("media write bytes = %d, want 256 (write amplification)", c.MediaWriteBytes)
	}
	if got := float64(c.MediaWrites) / float64(c.MediaReads+c.MediaWrites); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("write ratio = %v, want 0.2", got)
	}
}

func TestRecordAccessZeroAndNegative(t *testing.T) {
	sys := NewSystem(sim.NewKernel())
	tr := sys.Tier(Tier0)
	if got := tr.RecordAccess(Read, 0); got != 0 {
		t.Fatalf("zero-byte access = %d lines, want 0", got)
	}
	if tr.Counters().ReadOps != 0 {
		t.Fatal("zero-byte access must not count as an op")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative access did not panic")
		}
	}()
	tr.RecordAccess(Read, -1)
}

func TestRecordBurstSequentialVsRandom(t *testing.T) {
	sysA := NewSystem(sim.NewKernel())
	sysB := NewSystem(sim.NewKernel())
	seq := sysA.Tier(Tier2)
	rnd := sysB.Tier(Tier2)

	// 1000 records of 40 bytes: sequentially that is ceil(40000/256)=157
	// XPLines; randomly every record touches a full line -> 1000 lines.
	seqLines := seq.RecordBurst(Read, Sequential, 40_000, 1000)
	rndLines := rnd.RecordBurst(Read, Random, 40_000, 1000)
	if seqLines != 157 {
		t.Errorf("sequential lines = %d, want 157", seqLines)
	}
	if rndLines != 1000 {
		t.Errorf("random lines = %d, want 1000 (one XPLine per record)", rndLines)
	}
	if rnd.Counters().MediaReadBytes != 1000*256 {
		t.Errorf("random media bytes = %d, want 256000", rnd.Counters().MediaReadBytes)
	}
	if seq.Counters().ReadOps != 1000 || rnd.Counters().ReadOps != 1000 {
		t.Error("both bursts must count 1000 logical ops")
	}
}

func TestRecordBurstLargeRandomItems(t *testing.T) {
	sys := NewSystem(sim.NewKernel())
	tr := sys.Tier(Tier0) // DRAM, 64B lines
	// 10 random items of 200B each -> ceil(200/64)=4 lines per item.
	lines := tr.RecordBurst(Write, Random, 2000, 10)
	if lines != 40 {
		t.Errorf("lines = %d, want 40", lines)
	}
}

func TestRecordBurstEdgeCases(t *testing.T) {
	sys := NewSystem(sim.NewKernel())
	tr := sys.Tier(Tier0)
	if tr.RecordBurst(Read, Random, 0, 10) != 0 {
		t.Error("zero bytes must record nothing")
	}
	if tr.RecordBurst(Read, Random, 100, 0) != 0 {
		t.Error("zero items must record nothing")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative burst did not panic")
		}
	}()
	tr.RecordBurst(Read, Random, -5, 3)
}

func TestLoadedLatencyWriteAsymmetry(t *testing.T) {
	sys := NewSystem(sim.NewKernel())
	dram := sys.Tier(Tier0)
	dcpm := sys.Tier(Tier2)

	dramGap := dram.LoadedLatencyNS(Write, 1) / dram.LoadedLatencyNS(Read, 1)
	dcpmGap := dcpm.LoadedLatencyNS(Write, 1) / dcpm.LoadedLatencyNS(Read, 1)
	if dramGap > 1.2 {
		t.Errorf("DRAM write/read latency gap %v too large", dramGap)
	}
	if dcpmGap < 2 {
		t.Errorf("DCPM write/read latency gap %v too small; device is strongly asymmetric", dcpmGap)
	}
}

func TestLoadedLatencyContentionSlope(t *testing.T) {
	sys := NewSystem(sim.NewKernel())
	dram := sys.Tier(Tier0)
	dcpm := sys.Tier(Tier2)

	if dram.LoadedLatencyNS(Read, 1) != dram.Spec.IdleLatencyNS {
		t.Error("single sharer must see idle latency")
	}
	dramInfl := dram.LoadedLatencyNS(Read, 40) / dram.LoadedLatencyNS(Read, 1)
	dcpmInfl := dcpm.LoadedLatencyNS(Read, 40) / dcpm.LoadedLatencyNS(Read, 1)
	if dcpmInfl <= dramInfl {
		t.Errorf("DCPM contention inflation %v must exceed DRAM %v (Takeaway 6)", dcpmInfl, dramInfl)
	}
	// Monotone in sharers.
	prev := 0.0
	for s := 1; s <= 64; s *= 2 {
		l := dcpm.LoadedLatencyNS(Read, s)
		if l < prev {
			t.Fatalf("loaded latency not monotone at %d sharers", s)
		}
		prev = l
	}
}

func TestChannelUnitsWriteDerating(t *testing.T) {
	sys := NewSystem(sim.NewKernel())
	dcpm := sys.Tier(Tier2)
	r := dcpm.ChannelUnits(Read, Sequential, 1000)
	wRand := dcpm.ChannelUnits(Write, Random, 1000)
	wSeq := dcpm.ChannelUnits(Write, Sequential, 1000)
	if r != 1000 {
		t.Fatalf("read units = %v, want 1000", r)
	}
	wantRand := 1000 / dcpm.Spec.WriteBandwidthFactor
	if math.Abs(wRand-wantRand) > 1e-9 {
		t.Fatalf("random write units = %v, want %v", wRand, wantRand)
	}
	wantSeq := 1000 / dcpm.Spec.SeqWriteBandwidthFactor
	if math.Abs(wSeq-wantSeq) > 1e-9 {
		t.Fatalf("seq write units = %v, want %v", wSeq, wantSeq)
	}
	if wSeq >= wRand {
		t.Fatal("streaming writes must be cheaper than scattered writes on DCPM")
	}
	if dcpm.ChannelUnits(Read, Sequential, 0) != 0 {
		t.Fatal("zero bytes must cost zero units")
	}
}

func TestBandwidthCap(t *testing.T) {
	// drain is how long each tier takes to stream 1 GB.
	drain := func(cap float64) (out [NumTiers]sim.Time) {
		k := sim.NewKernel()
		sys := NewSystem(k)
		if cap > 0 {
			sys.SetBandwidthCap(cap)
		}
		for _, id := range AllTiers() {
			id := id
			tier := sys.Tier(id)
			tier.Server().Submit(tier.ChannelUnits(Read, Sequential, 1e9), func(now sim.Time) { out[id] = now })
		}
		k.Run()
		return out
	}
	full, capped := drain(0), drain(0.4)
	for _, id := range AllTiers() {
		if got := float64(full[id]) / float64(capped[id]); math.Abs(got-0.4) > 1e-6 {
			t.Errorf("%v drains at %v of full speed under a 0.4 cap", id, got)
		}
	}
}

func TestSnapshotAndReset(t *testing.T) {
	sys := NewSystem(sim.NewKernel())
	sys.Tier(Tier1).RecordAccess(Read, 4096)
	snap := sys.Snapshot()
	if snap[Tier1].ReadBytes != 4096 {
		t.Fatalf("snapshot read bytes = %d, want 4096", snap[Tier1].ReadBytes)
	}
	if snap[Tier0].ReadBytes != 0 {
		t.Fatal("tier 0 should be untouched")
	}
}

func TestCountersAddSub(t *testing.T) {
	a := Counters{ReadOps: 3, WriteOps: 1, ReadBytes: 300, WriteBytes: 100,
		MediaReads: 5, MediaWrites: 2, MediaReadBytes: 320, MediaWriteBytes: 512}
	b := Counters{ReadOps: 1, WriteBytes: 40, MediaWrites: 1, MediaWriteBytes: 256}
	var sum Counters
	sum.Add(a)
	sum.Add(b)
	diff := sum.Sub(b)
	if diff != a {
		t.Fatalf("Add/Sub roundtrip failed: %+v != %+v", diff, a)
	}
}

func TestInvalidTierPanics(t *testing.T) {
	sys := NewSystem(sim.NewKernel())
	defer func() {
		if recover() == nil {
			t.Error("invalid tier id did not panic")
		}
	}()
	sys.Tier(TierID(9))
}

func TestPatternExposure(t *testing.T) {
	if Random.LatencyExposure() != 1.0 {
		t.Error("random access must pay full latency")
	}
	if e := Sequential.LatencyExposure(); e <= 0 || e >= 0.5 {
		t.Errorf("sequential exposure %v should be small but positive", e)
	}
}

// Property: lines are always enough to carry the requested bytes and never
// more than one extra line.
func TestLinesProperty(t *testing.T) {
	sys := NewSystem(sim.NewKernel())
	prop := func(raw uint32, dcpm bool) bool {
		bytes := int64(raw % 10_000_000)
		tier := sys.Tier(Tier0)
		if dcpm {
			tier = sys.Tier(Tier2)
		}
		lines := tier.Lines(bytes)
		ls := tier.Spec.Kind.LineSize()
		if bytes == 0 {
			return lines == 0
		}
		return lines*ls >= bytes && (lines-1)*ls < bytes
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: counters conserve bytes — media bytes >= logical bytes and the
// two op streams never mix.
func TestCountersConservationProperty(t *testing.T) {
	prop := func(sizes []uint16, writes []bool) bool {
		sys := NewSystem(sim.NewKernel())
		tr := sys.Tier(Tier3)
		var logicalR, logicalW int64
		for i, sz := range sizes {
			b := int64(sz)
			w := i < len(writes) && writes[i]
			if w {
				logicalW += b
				tr.RecordAccess(Write, b)
			} else {
				logicalR += b
				tr.RecordAccess(Read, b)
			}
		}
		c := tr.Counters()
		return c.ReadBytes == logicalR && c.WriteBytes == logicalW &&
			c.MediaReadBytes >= logicalR && c.MediaWriteBytes >= logicalW
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
