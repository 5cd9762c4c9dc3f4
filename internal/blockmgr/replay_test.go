package blockmgr

import "testing"

func TestPeekDoesNotTouchLRUOrStats(t *testing.T) {
	m := New(0)
	id := BlockID{RDD: 1, Partition: 0}
	m.Put(id, "data", 100, 10)

	data, bytes, items, ok := m.Peek(id)
	if !ok || data != "data" || bytes != 100 || items != 10 {
		t.Fatalf("peek = %v/%d/%d/%v", data, bytes, items, ok)
	}
	if _, _, _, ok := m.Peek(BlockID{RDD: 9, Partition: 9}); ok {
		t.Fatal("peek found a missing block")
	}
	if hits, misses, _ := m.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("peek moved stats: hits=%d misses=%d", hits, misses)
	}
}

func TestReplayHitAndMissCountStats(t *testing.T) {
	m := New(0)
	id := BlockID{RDD: 1, Partition: 0}
	m.Put(id, "data", 100, 10)

	m.ReplayHit(id)
	m.ReplayMiss()
	m.ReplayMiss()
	if hits, misses, _ := m.Stats(); hits != 1 || misses != 2 {
		t.Fatalf("replayed stats hits=%d misses=%d, want 1/2", hits, misses)
	}
}

// A replayed hit renews LRU position, exactly like a live Get: under a
// bounded cache the renewed block must survive the next eviction.
func TestReplayHitRenewsLRU(t *testing.T) {
	m := New(200)
	a := BlockID{RDD: 1, Partition: 0}
	b := BlockID{RDD: 1, Partition: 1}
	m.Put(a, "a", 100, 1)
	m.Put(b, "b", 100, 1)
	m.ReplayHit(a) // a becomes most recently used
	m.Put(BlockID{RDD: 1, Partition: 2}, "c", 100, 1)
	if m.blocks[a] == nil {
		t.Fatal("replay-hit block was evicted first")
	}
	if m.blocks[b] != nil {
		t.Fatal("LRU victim should have been the non-renewed block")
	}
}

// Replaying a hit for a block evicted between compute and commit must not
// panic and still counts the hit (the task really did read the data).
func TestReplayHitAfterEviction(t *testing.T) {
	m := New(0)
	id := BlockID{RDD: 1, Partition: 0}
	m.Put(id, "data", 100, 10)
	m.Remove(id)
	m.ReplayHit(id)
	if hits, _, _ := m.Stats(); hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
}

// The sequence Get (live) and Peek+ReplayHit (staged) must leave the
// manager in the same state.
func TestReplayEquivalentToLiveGet(t *testing.T) {
	live := New(300)
	staged := New(300)
	for _, m := range []*Manager{live, staged} {
		m.Put(BlockID{RDD: 1, Partition: 0}, "a", 100, 1)
		m.Put(BlockID{RDD: 1, Partition: 1}, "b", 100, 1)
	}

	live.Get(BlockID{RDD: 1, Partition: 0})
	live.Get(BlockID{RDD: 2, Partition: 0}) // miss

	staged.Peek(BlockID{RDD: 1, Partition: 0})
	staged.ReplayHit(BlockID{RDD: 1, Partition: 0})
	staged.ReplayMiss()

	lh, lm, _ := live.Stats()
	sh, sm, _ := staged.Stats()
	if lh != sh || lm != sm {
		t.Fatalf("stats diverge: live %d/%d staged %d/%d", lh, lm, sh, sm)
	}
	// Same LRU order: adding a third block must evict the same victim.
	live.Put(BlockID{RDD: 3, Partition: 0}, "c", 150, 1)
	staged.Put(BlockID{RDD: 3, Partition: 0}, "c", 150, 1)
	if (live.blocks[BlockID{RDD: 1, Partition: 1}] != nil) != (staged.blocks[BlockID{RDD: 1, Partition: 1}] != nil) {
		t.Fatal("LRU order diverged between live Get and staged replay")
	}
}
