package blockmgr

import (
	"testing"

	"repro/internal/memsim"
)

func TestChunkStoreResidencyAccounting(t *testing.T) {
	s := NewChunkStore(memsim.Tier2)
	s.ChunkPut(1, 0, 1000)
	s.ChunkPut(1, 1, 500)
	if len(s.resident) != 2 {
		t.Fatalf("%d chunk sets registered, want 2", len(s.resident))
	}
	if tier, ok := s.TierOf(1, 0); !ok || tier != memsim.Tier2 {
		t.Fatalf("TierOf(1,0) = %v,%v", tier, ok)
	}
	if _, ok := s.TierOf(1, 9); ok {
		t.Fatal("TierOf reports an unregistered chunk as resident")
	}

	// A resubmitted map task replaces its registration.
	s.ChunkPut(1, 0, 250)
	if len(s.resident) != 2 {
		t.Fatalf("replace changed count: %d, want 2", len(s.resident))
	}

	// Drops release residency; double drops are no-ops.
	s.ChunkDropped(1, 1)
	s.ChunkDropped(1, 1)
	if _, ok := s.TierOf(1, 1); ok || len(s.resident) != 1 {
		t.Fatalf("after drop: %d chunk sets, want 1", len(s.resident))
	}
	s.ChunkDropped(1, 0)
	if len(s.resident) != 0 {
		t.Fatalf("store not empty after dropping everything: %d chunk sets", len(s.resident))
	}
}

func TestChunkStoreRejectsInvalidTier(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewChunkStore accepted an invalid tier")
		}
	}()
	NewChunkStore(memsim.TierID(memsim.NumTiers))
}
