package blockmgr

import (
	"testing"
	"testing/quick"
)

func TestPutGetRoundtrip(t *testing.T) {
	m := New(1000)
	id := BlockID{RDD: 1, Partition: 2}
	m.Put(id, []int{1, 2, 3}, 24, 3)
	data, bytes, items, ok := m.Get(id)
	if !ok {
		t.Fatal("block not found after Put")
	}
	if bytes != 24 || items != 3 {
		t.Fatalf("bytes/items = %d/%d, want 24/3", bytes, items)
	}
	if got := data.([]int); len(got) != 3 || got[0] != 1 {
		t.Fatalf("data corrupted: %v", got)
	}
	if id.String() != "rdd_1_2" {
		t.Errorf("BlockID string = %q", id.String())
	}
}

func TestGetMissCountsMiss(t *testing.T) {
	m := New(100)
	if _, _, _, ok := m.Get(BlockID{9, 9}); ok {
		t.Fatal("phantom block")
	}
	hits, misses, _ := m.Stats()
	if hits != 0 || misses != 1 {
		t.Fatalf("stats = %d/%d, want 0 hits / 1 miss", hits, misses)
	}
}

func TestLRUEviction(t *testing.T) {
	m := New(100)
	a, b, c := BlockID{1, 0}, BlockID{1, 1}, BlockID{1, 2}
	m.Put(a, "a", 40, 1)
	m.Put(b, "b", 40, 1)
	m.Get(a) // a becomes MRU; b is now LRU
	evicted := m.Put(c, "c", 40, 1)
	if len(evicted) != 1 || evicted[0] != b {
		t.Fatalf("evicted = %v, want [%v]", evicted, b)
	}
	if m.blocks[a] == nil || m.blocks[c] == nil || m.blocks[b] != nil {
		t.Fatal("wrong survivor set after eviction")
	}
	if m.used != 80 {
		t.Fatalf("used = %d, want 80", m.used)
	}
}

func TestOversizedBlockNotStored(t *testing.T) {
	m := New(100)
	m.Put(BlockID{1, 0}, "small", 50, 1)
	evicted := m.Put(BlockID{1, 1}, "huge", 500, 1)
	if len(evicted) != 0 {
		t.Fatal("oversized put must not evict")
	}
	if m.blocks[BlockID{1, 1}] != nil {
		t.Fatal("oversized block stored")
	}
	if m.blocks[BlockID{1, 0}] == nil {
		t.Fatal("existing block lost")
	}
}

func TestReplaceUpdatesUsage(t *testing.T) {
	m := New(0) // unbounded
	id := BlockID{2, 0}
	m.Put(id, "v1", 30, 1)
	m.Put(id, "v2", 70, 2)
	if m.used != 70 || len(m.blocks) != 1 {
		t.Fatalf("used/len = %d/%d, want 70/1", m.used, len(m.blocks))
	}
	data, _, _, _ := m.Get(id)
	if data.(string) != "v2" {
		t.Fatal("replacement not visible")
	}
}

func TestRemoveAndClear(t *testing.T) {
	m := New(0)
	id := BlockID{3, 1}
	m.Put(id, 1, 10, 1)
	if !m.Remove(id) {
		t.Fatal("Remove returned false for existing block")
	}
	if m.Remove(id) {
		t.Fatal("Remove returned true for missing block")
	}
	m.Put(id, 1, 10, 1)
	m.RemoveAll()
	if len(m.blocks) != 0 || m.used != 0 {
		t.Fatal("RemoveAll left residue")
	}
}

func TestNegativeSizePanics(t *testing.T) {
	m := New(0)
	defer func() {
		if recover() == nil {
			t.Error("negative size did not panic")
		}
	}()
	m.Put(BlockID{1, 1}, nil, -1, 0)
}

// Property: used bytes always equal the sum of stored block sizes, and
// never exceed capacity for bounded managers.
func TestUsageInvariantProperty(t *testing.T) {
	prop := func(ops []struct {
		RDD, Part uint8
		Size      uint16
	}) bool {
		const capBytes = 10_000
		m := New(capBytes)
		live := map[BlockID]int64{}
		for _, op := range ops {
			id := BlockID{int(op.RDD % 8), int(op.Part % 8)}
			sz := int64(op.Size)
			evicted := m.Put(id, nil, sz, 1)
			if sz <= capBytes {
				live[id] = sz
			} else {
				delete(live, id)
			}
			for _, ev := range evicted {
				delete(live, ev)
			}
		}
		var want int64
		for id, sz := range live {
			if m.blocks[id] == nil {
				return false
			}
			want += sz
		}
		return m.used == want && m.used <= capBytes && len(m.blocks) == len(live)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// RemoveAll models an executor crash: the whole store is dropped and
// reported, while hit/miss/eviction statistics survive for the run's
// cache-effectiveness accounting.
func TestRemoveAllReportsLossAndKeepsStats(t *testing.T) {
	m := New(0)
	m.Put(BlockID{RDD: 1, Partition: 0}, "a", 100, 1)
	m.Put(BlockID{RDD: 1, Partition: 1}, "b", 50, 1)
	m.Get(BlockID{RDD: 1, Partition: 0}) // hit
	m.Get(BlockID{RDD: 9, Partition: 9}) // miss

	blocks, bytes := m.RemoveAll()
	if blocks != 2 || bytes != 150 {
		t.Fatalf("RemoveAll = (%d, %d), want (2, 150)", blocks, bytes)
	}
	if len(m.blocks) != 0 || m.used != 0 {
		t.Fatalf("store not empty after RemoveAll: len=%d used=%d", len(m.blocks), m.used)
	}
	hits, misses, _ := m.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats reset by RemoveAll: hits=%d misses=%d", hits, misses)
	}
	// The LRU list must be reusable after the wipe.
	m.Put(BlockID{RDD: 2, Partition: 0}, "c", 10, 1)
	if len(m.blocks) != 1 || m.used != 10 {
		t.Fatal("store unusable after RemoveAll")
	}
	if b, _ := m.RemoveAll(); b != 1 {
		t.Fatalf("second RemoveAll dropped %d blocks, want 1", b)
	}
}
