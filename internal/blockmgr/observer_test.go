package blockmgr

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/memsim"
)

// recordingObserver logs every callback as a formatted line.
type recordingObserver struct {
	events []string
}

func (r *recordingObserver) BlockAccessed(id BlockID, bytes int64) {
	r.events = append(r.events, fmt.Sprintf("access %s %d", id, bytes))
}
func (r *recordingObserver) BlockPut(id BlockID, bytes int64) {
	r.events = append(r.events, fmt.Sprintf("put %s %d", id, bytes))
}
func (r *recordingObserver) BlockEvicted(id BlockID, bytes int64) {
	r.events = append(r.events, fmt.Sprintf("evict %s %d", id, bytes))
}
func (r *recordingObserver) BlockDropped(id BlockID, bytes int64) {
	r.events = append(r.events, fmt.Sprintf("drop %s %d", id, bytes))
}

// driveOps runs a fixed operation sequence against a manager and returns
// its observable outcomes (hit/miss results, eviction lists).
func driveOps(m *Manager) []string {
	var log []string
	ids := func(i int) BlockID { return BlockID{RDD: 1, Partition: i} }
	for i := 0; i < 6; i++ {
		ev := m.Put(ids(i), i, 100, 1)
		log = append(log, fmt.Sprintf("put %d evicted %v", i, ev))
	}
	for _, i := range []int{0, 2, 4, 9} {
		_, _, _, ok := m.Get(ids(i))
		log = append(log, fmt.Sprintf("get %d ok=%v", i, ok))
	}
	// Renew 1 via replay, then force evictions with a large block.
	m.ReplayHit(ids(1))
	m.ReplayMiss()
	ev := m.Put(BlockID{RDD: 2, Partition: 0}, "big", 250, 1)
	log = append(log, fmt.Sprintf("bigput evicted %v", ev))
	m.Remove(ids(1))
	h, mi, e := m.Stats()
	log = append(log, fmt.Sprintf("stats %d/%d/%d used=%d len=%d", h, mi, e, m.used, len(m.blocks)))
	return log
}

// The LRU semantics, eviction choices and Stats must be identical with
// and without an observer installed — the hook is pure observation.
func TestObserverDoesNotChangeSemantics(t *testing.T) {
	plain := New(500)
	observed := New(500)
	observed.SetObserver(&recordingObserver{})

	plainLog := driveOps(plain)
	observedLog := driveOps(observed)
	if len(plainLog) != len(observedLog) {
		t.Fatalf("log lengths differ: %d vs %d", len(plainLog), len(observedLog))
	}
	for i := range plainLog {
		if plainLog[i] != observedLog[i] {
			t.Fatalf("outcome %d diverged with observer:\n  plain:    %s\n  observed: %s",
				i, plainLog[i], observedLog[i])
		}
	}
}

// The observer must see the full lifecycle: puts, counted accesses,
// LRU evictions and explicit drops — and nothing from Peek.
func TestObserverEventStream(t *testing.T) {
	obs := &recordingObserver{}
	m := New(250)
	m.SetObserver(obs)

	a := BlockID{RDD: 1, Partition: 0}
	b := BlockID{RDD: 1, Partition: 1}
	c := BlockID{RDD: 1, Partition: 2}
	m.Put(a, "a", 100, 1)
	m.Put(b, "b", 100, 1)
	m.Get(a)
	m.Peek(b)             // must NOT fire the observer
	m.Put(c, "c", 100, 1) // evicts b (a was renewed by Get)
	m.ReplayHit(a)
	m.ReplayHit(b) // b evicted: replayed hit counts but is not observed
	m.Remove(c)

	want := []string{
		"put rdd_1_0 100",
		"put rdd_1_1 100",
		"access rdd_1_0 100",
		"evict rdd_1_1 100",
		"put rdd_1_2 100",
		"access rdd_1_0 100",
		"drop rdd_1_2 100",
	}
	if len(obs.events) != len(want) {
		t.Fatalf("got %d events %v, want %d", len(obs.events), obs.events, len(want))
	}
	for i := range want {
		if obs.events[i] != want[i] {
			t.Fatalf("event %d = %q, want %q (all: %v)", i, obs.events[i], want[i], obs.events)
		}
	}
}

// RemoveAll must notify drops in block-id order for determinism.
func TestRemoveAllDropsInOrder(t *testing.T) {
	obs := &recordingObserver{}
	m := New(0)
	m.SetObserver(obs)
	for _, p := range []int{3, 0, 2, 1} {
		m.Put(BlockID{RDD: 7, Partition: p}, p, int64(10+p), 1)
	}
	obs.events = nil
	m.RemoveAll()
	want := []string{"drop rdd_7_0 10", "drop rdd_7_1 11", "drop rdd_7_2 12", "drop rdd_7_3 13"}
	for i := range want {
		if obs.events[i] != want[i] {
			t.Fatalf("drop %d = %q, want %q", i, obs.events[i], want[i])
		}
	}
}

// checkResidencyInvariants asserts the tiering contract on a manager:
// every block resident in exactly one tier, and per-tier occupancy
// summing to Used().
func checkResidencyInvariants(t *testing.T, m *Manager) {
	t.Helper()
	var sum int64
	perTier := map[memsim.TierID]int64{}
	for _, b := range m.AppendBlocks(nil) {
		if !b.Tier.Valid() {
			t.Fatalf("block %s resident on invalid tier %d", b.ID, b.Tier)
		}
		perTier[b.Tier] += b.Bytes
	}
	for _, id := range memsim.AllTiers() {
		if got := m.TierUsed(id); got != perTier[id] {
			t.Fatalf("TierUsed(%s)=%d but blocks sum to %d", id, got, perTier[id])
		}
		sum += m.TierUsed(id)
	}
	if sum != m.used {
		t.Fatalf("per-tier occupancy sums to %d, used=%d", sum, m.used)
	}
}

// Property test: a seeded random mix of puts, gets, removes, migrations
// and landing-tier changes preserves the residency invariants at every
// step, with and without capacity pressure.
func TestResidencyInvariantsProperty(t *testing.T) {
	for _, capacity := range []int64{0, 700} {
		r := rand.New(rand.NewSource(42))
		m := New(capacity)
		m.SetLandingTier(memsim.Tier2)
		for step := 0; step < 2000; step++ {
			id := BlockID{RDD: r.Intn(4), Partition: r.Intn(8)}
			switch r.Intn(6) {
			case 0, 1:
				m.Put(id, step, int64(1+r.Intn(200)), 1)
			case 2:
				m.Get(id)
			case 3:
				m.Remove(id)
			case 4:
				m.SetResidency(id, memsim.TierID(r.Intn(int(memsim.NumTiers))))
			case 5:
				m.SetLandingTier(memsim.TierID(r.Intn(int(memsim.NumTiers))))
			}
			checkResidencyInvariants(t, m)
		}
		m.RemoveAll()
		checkResidencyInvariants(t, m)
		if m.used != 0 || len(m.blocks) != 0 {
			t.Fatalf("capacity=%d: RemoveAll left used=%d len=%d", capacity, m.used, len(m.blocks))
		}
	}
}

// Overwriting a migrated block rewrites its data on the landing tier.
func TestPutResetsResidencyToLanding(t *testing.T) {
	m := New(0)
	m.SetLandingTier(memsim.Tier0)
	id := BlockID{RDD: 1, Partition: 1}
	m.Put(id, "v1", 100, 1)
	if !m.SetResidency(id, memsim.Tier2) {
		t.Fatal("SetResidency on resident block returned false")
	}
	if tier, _ := m.TierOf(id); tier != memsim.Tier2 {
		t.Fatalf("tier after migration = %v, want Tier 2", tier)
	}
	m.Put(id, "v2", 120, 1)
	if tier, _ := m.TierOf(id); tier != memsim.Tier0 {
		t.Fatalf("tier after overwrite = %v, want landing Tier 0", tier)
	}
	if m.TierUsed(memsim.Tier2) != 0 || m.TierUsed(memsim.Tier0) != 120 {
		t.Fatalf("occupancy after overwrite: T0=%d T2=%d", m.TierUsed(memsim.Tier0), m.TierUsed(memsim.Tier2))
	}
	if m.SetResidency(BlockID{RDD: 9, Partition: 9}, memsim.Tier1) {
		t.Fatal("SetResidency on absent block returned true")
	}
}

// Overwriting a resident block with one larger than the whole capacity
// stores nothing but does displace the old incarnation: the observer
// must hear that the block is gone, or a tracker keeps it forever.
func TestOversizedOverwriteDropsDisplaced(t *testing.T) {
	obs := &recordingObserver{}
	m := New(250)
	m.SetObserver(obs)
	id := BlockID{RDD: 1, Partition: 0}
	m.Put(id, "small", 100, 1)
	if ev := m.Put(id, "huge", 300, 1); ev != nil {
		t.Fatalf("oversized overwrite reported evictions %v", ev)
	}
	if m.blocks[id] != nil || m.used != 0 || len(m.AppendBlocks(nil)) != 0 {
		t.Fatalf("oversized overwrite left the block resident: used=%d blocks=%v", m.used, m.AppendBlocks(nil))
	}
	want := []string{"put rdd_1_0 100", "drop rdd_1_0 100"}
	if fmt.Sprint(obs.events) != fmt.Sprint(want) {
		t.Fatalf("events = %v, want %v", obs.events, want)
	}
	// An oversized put of a block that was never resident displaces
	// nothing and stays silent.
	obs.events = nil
	m.Put(BlockID{RDD: 1, Partition: 1}, "huge", 300, 1)
	if len(obs.events) != 0 {
		t.Fatalf("oversized put of an absent block fired %v", obs.events)
	}
}

// residentSet is the observer-side picture of which blocks are resident.
type residentSet map[BlockID]int64

func (r residentSet) BlockAccessed(id BlockID, bytes int64) {}
func (r residentSet) BlockPut(id BlockID, bytes int64)      { r[id] = bytes }
func (r residentSet) BlockEvicted(id BlockID, bytes int64)  { delete(r, id) }
func (r residentSet) BlockDropped(id BlockID, bytes int64)  { delete(r, id) }

// Model-based: under a seeded random mix of puts, overwrites (some
// oversized), capacity evictions, removes and RemoveAll, the maintained
// id-ordered index always equals "collect the map and sort", and an
// observer that only listens to events always knows the resident set.
func TestBlocksOrderModel(t *testing.T) {
	for _, capacity := range []int64{0, 900} {
		r := rand.New(rand.NewSource(7))
		m := New(capacity)
		seen := residentSet{}
		m.SetObserver(seen)
		for step := 0; step < 4000; step++ {
			id := BlockID{RDD: r.Intn(3), Partition: r.Intn(16)}
			switch op := r.Intn(20); {
			case op < 10:
				m.Put(id, step, int64(1+r.Intn(150)), 1+r.Intn(3))
			case op < 11:
				m.Put(id, step, 1000, 1) // oversized under the bounded capacity
			case op < 14:
				m.Get(id)
			case op < 17:
				m.Remove(id)
			case op < 19:
				m.SetResidency(id, memsim.TierID(r.Intn(int(memsim.NumTiers))))
			default:
				if r.Intn(10) == 0 {
					m.RemoveAll()
				}
			}

			want := make([]BlockInfo, 0, len(m.blocks))
			for _, e := range m.blocks {
				want = append(want, BlockInfo{ID: e.id, Bytes: e.bytes, Items: e.items, Tier: e.tier})
			}
			sort.Slice(want, func(i, j int) bool { return want[i].ID.Less(want[j].ID) })
			got := m.AppendBlocks(nil)
			if len(got) != len(want) {
				t.Fatalf("capacity=%d step %d: Blocks() has %d entries, map has %d", capacity, step, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("capacity=%d step %d: Blocks()[%d] = %+v, want %+v", capacity, step, i, got[i], want[i])
				}
			}
			if len(seen) != len(want) {
				t.Fatalf("capacity=%d step %d: observer sees %d resident blocks, manager holds %d", capacity, step, len(seen), len(want))
			}
			for _, b := range want {
				if seen[b.ID] != b.Bytes {
					t.Fatalf("capacity=%d step %d: observer has %s at %d bytes, manager %d", capacity, step, b.ID, seen[b.ID], b.Bytes)
				}
			}
		}
	}
}
