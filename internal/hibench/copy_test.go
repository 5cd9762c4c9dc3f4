package hibench

import (
	"testing"

	"repro/internal/memsim"
	"repro/internal/workloads"
)

// TestRunRecordsCopyLedger pins the shuffle-copy ledger's invariants on
// the chunk shuffle: a single-executor run serves every chunk read by
// reference (reader and writer are always co-resident), a multi-executor
// run pays remote copies for the cross-executor share, and the ledger is
// observational — the virtual duration is identical whether chunk reads
// land local or remote, because ReadShuffleChunk charges by ExecID, not
// by what the ledger records.
func TestRunRecordsCopyLedger(t *testing.T) {
	single := runValid(t, RunSpec{Workload: "repartition", Size: workloads.Tiny, Tier: memsim.Tier2})
	c := single.Copies[memsim.Tier2]
	if c.TotalChunks() == 0 || c.TotalBytes() == 0 {
		t.Fatal("shuffle run recorded no chunk reads in the copy ledger")
	}
	if c.RemoteChunks != 0 || c.RemoteBytes != 0 {
		t.Fatalf("single-executor run recorded remote copies: %+v", c)
	}
	if c.SavedFraction() != 1 {
		t.Fatalf("single-executor saved fraction = %v, want 1", c.SavedFraction())
	}
	for tier := memsim.Tier0; tier < memsim.TierID(memsim.NumTiers); tier++ {
		if tier != memsim.Tier2 && single.Copies[tier].TotalChunks() != 0 {
			t.Errorf("chunk reads leaked onto %v: %+v", tier, single.Copies[tier])
		}
	}

	multi := runValid(t, RunSpec{Workload: "repartition", Size: workloads.Tiny, Tier: memsim.Tier2,
		Executors: 4, CoresPerExecutor: 10})
	m := multi.Copies[memsim.Tier2]
	if m.RemoteChunks == 0 {
		t.Fatal("4-executor run recorded no remote chunk copies")
	}
	if m.LocalChunks == 0 {
		t.Fatal("4-executor run recorded no co-resident chunk reads")
	}
	if f := m.SavedFraction(); f <= 0 || f >= 1 {
		t.Fatalf("4-executor saved fraction = %v, want in (0,1)", f)
	}
}
