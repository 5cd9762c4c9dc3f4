package executor

import (
	"testing"

	"repro/internal/blockmgr"
	"repro/internal/memsim"
	"repro/internal/shuffle"
	"repro/internal/sim"
)

// Tier counters stay task-local until Commit publishes them: this is what
// lets phase-1 tasks run concurrently without racing on the tiers.
func TestStagedCountersLandOnlyAtCommit(t *testing.T) {
	_, sys, pool := newTestRig(memsim.Tier2)
	ctx := newCtx(pool, 0)
	ctx.MemSeq(memsim.Read, 25_600)
	if c := sys.Tier(memsim.Tier2).Counters(); c.MediaReads+c.MediaWrites != 0 {
		t.Fatalf("charges visible before commit: %+v", c)
	}
	ctx.Commit()
	if c := sys.Tier(memsim.Tier2).Counters(); c.MediaReads != 100 {
		t.Fatalf("media reads after commit = %d, want 100", c.MediaReads)
	}
}

func TestCommitTwicePanics(t *testing.T) {
	_, _, pool := newTestRig(memsim.Tier0)
	ctx := newCtx(pool, 0)
	ctx.Commit()
	defer func() {
		if recover() == nil {
			t.Fatal("double commit did not panic")
		}
	}()
	ctx.Commit()
}

// A task's GetBlock after its own PutBlock must hit through the overlay
// (the block is not yet in the shared manager): otherwise lineage would be
// recomputed twice and the cost profile would diverge from sequential
// execution.
func TestGetBlockSeesOwnStagedPut(t *testing.T) {
	_, _, pool := newTestRig(memsim.Tier0)
	ctx := newCtx(pool, 0)
	id := blockmgr.BlockID{RDD: 7, Partition: 0}

	if _, _, _, ok := ctx.GetBlock(id); ok {
		t.Fatal("hit before any put")
	}
	ctx.PutBlock(id, "payload", 64, 4)
	if _, ok := ctx.Blocks.TierOf(id); ok {
		t.Fatal("staged put leaked into the shared manager before commit")
	}
	data, bytes, items, ok := ctx.GetBlock(id)
	if !ok || data != "payload" || bytes != 64 || items != 4 {
		t.Fatalf("overlay get = %v/%d/%d/%v", data, bytes, items, ok)
	}

	ctx.Commit()
	if _, ok := ctx.Blocks.TierOf(id); !ok {
		t.Fatal("staged put not committed")
	}
	// Commit replays the outcomes: one miss, then one hit via the overlay.
	hits, misses, _ := ctx.Blocks.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("replayed stats hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// GetBlock reads a stage-start snapshot of the manager and stages the
// hit; the hit count and LRU renewal land at commit.
func TestGetBlockSnapshotAndReplay(t *testing.T) {
	_, _, pool := newTestRig(memsim.Tier0)
	ctx := newCtx(pool, 0)
	id := blockmgr.BlockID{RDD: 3, Partition: 0}
	ctx.Blocks.Put(id, "cached", 32, 2)

	data, _, _, ok := ctx.GetBlock(id)
	if !ok || data != "cached" {
		t.Fatal("snapshot read missed a committed block")
	}
	if hits, _, _ := ctx.Blocks.Stats(); hits != 0 {
		t.Fatal("hit counted before commit")
	}
	ctx.Commit()
	if hits, _, _ := ctx.Blocks.Stats(); hits != 1 {
		t.Fatal("hit not replayed at commit")
	}
}

// Shuffle chunk sets stage in the context and land in the store, stamped
// with the writer's executor id, only at Commit.
func TestShufflePutsStagedUntilCommit(t *testing.T) {
	_, _, pool := newTestRig(memsim.Tier0)
	ex := pool.AssignPartition(0)
	store := shuffle.NewStore()
	store.RegisterShuffle(1, 2)
	ctx := NewTaskContext(ex.ID, 0, pool.Tier(), DefaultCostModel(), ex.Blocks, store, 42)

	ctx.PutShuffleChunks(&shuffle.ChunkSet{
		Shuffle: 1, MapPart: 0,
		Chunks: [][]int{nil, {1, 2, 3}}, Items: []int{0, 3}, Bytes: []int64{0, 24},
	})
	if store.TotalBytes() != 0 {
		t.Fatal("chunk set visible before commit")
	}
	ctx.Commit()
	if store.TotalBytes() != 24 {
		t.Fatalf("store bytes after commit = %d, want 24", store.TotalBytes())
	}
	sets, err := store.Inputs(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cs := sets[0]
	if cs == nil || cs.Items[1] != 3 || cs.ExecID != ex.ID {
		t.Fatalf("committed chunk set = %+v", cs)
	}
}

// Commit must tolerate contexts without storage handles (executor startup,
// micro-tests): only tier deltas are published.
func TestCommitWithNilStores(t *testing.T) {
	k := sim.NewKernel()
	sys := memsim.NewSystem(k)
	ctx := NewTaskContext(0, 0, sys.Tier(memsim.Tier0), DefaultCostModel(), nil, nil, 1)
	ctx.MemSeq(memsim.Write, 640)
	ctx.Commit()
	if sys.Tier(memsim.Tier0).Counters().MediaWrites != 10 {
		t.Fatalf("tier delta not committed: %+v", sys.Tier(memsim.Tier0).Counters())
	}
}
