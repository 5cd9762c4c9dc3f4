package heat

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/blockmgr"
	"repro/internal/memsim"
)

// modelIDs is the block population the model tests draw from: small
// enough that re-puts, re-accesses after a drop and accesses to blocks
// no tracker has heard of all happen constantly.
func modelIDs() []blockmgr.BlockID {
	var ids []blockmgr.BlockID
	for rdd := 1; rdd <= 3; rdd++ {
		for p := 0; p < 10; p++ {
			ids = append(ids, blockmgr.BlockID{RDD: rdd, Partition: p})
		}
	}
	return ids
}

// checkTrackersAgree compares everything the Tracker interface exposes.
func checkTrackersAgree(t *testing.T, where string, got, want Tracker, ids []blockmgr.BlockID) {
	t.Helper()
	if g, w := got.AppendSnapshot(nil), want.AppendSnapshot(nil); !slices.Equal(g, w) {
		t.Fatalf("%s: Snapshot\n got %v\nwant %v", where, g, w)
	}
	for _, id := range ids {
		if g, w := got.WriteHeat(id), want.WriteHeat(id); g != w {
			t.Fatalf("%s: WriteHeat(%s) = %v, want %v", where, id, g, w)
		}
	}
}

// driveTrackers feeds one seeded random event stream to a tracker and
// its map-based oracle, comparing them after every event. Ticks come
// singly and in bursts long enough for entries to decay under heatFloor
// (heat and write heat at different epochs, since a put resets one and
// accumulates the other).
func driveTrackers(t *testing.T, name string, seed int64, got, want Tracker) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	ids := modelIDs()
	for step := 0; step < 3000; step++ {
		id := ids[r.Intn(len(ids))]
		op := r.Intn(100)
		switch {
		case op < 30:
			got.BlockPut(id, 64)
			want.BlockPut(id, 64)
		case op < 65:
			// Also reaches blocks never put, evicted, or decayed out.
			got.BlockAccessed(id, 64)
			want.BlockAccessed(id, 64)
		case op < 75:
			got.BlockEvicted(id, 64)
			want.BlockEvicted(id, 64)
		case op < 85:
			got.BlockDropped(id, 64)
			want.BlockDropped(id, 64)
		default:
			ticks := 1
			if r.Intn(8) == 0 {
				ticks = 1 + r.Intn(40)
			}
			for i := 0; i < ticks; i++ {
				got.Tick()
				want.Tick()
			}
		}
		checkTrackersAgree(t, fmt.Sprintf("%s seed %d step %d (op %d on %s)", name, seed, step, op, id), got, want, ids)
	}
}

func TestAccessTrackerMatchesMapModel(t *testing.T) {
	for _, decay := range []float64{0.5, 0.9, 0.1, 0} {
		for seed := int64(1); seed <= 3; seed++ {
			driveTrackers(t, fmt.Sprintf("access decay %v", decay), seed,
				NewAccessTracker(decay), newMapAccessTracker(decay))
		}
	}
}

func TestIdleTrackerMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		got, want := NewIdleTracker(), newMapIdleTracker()
		driveTrackers(t, "idle", seed, got, want)
		for _, id := range modelIDs() {
			if g, w := got.since(got.blocks.get(id).touched), want.Age(id); g != w {
				t.Fatalf("idle seed %d: Age(%s) = %d, want %d", seed, id, g, w)
			}
		}
	}
}

// The write heat of a block outlives its combined heat (a put resets
// heat to one touch but accumulates write heat), and in between the
// block is out of Snapshot while WriteHeat still answers.
func TestAccessTrackerWriteOutlivesHeat(t *testing.T) {
	tr := NewAccessTracker(0.5)
	tr.BlockPut(bid(0), 64)
	tr.BlockPut(bid(0), 64) // heat 1, write 2
	for heatOf(tr, bid(0)) != 0 {
		tr.Tick()
	}
	if w := tr.WriteHeat(bid(0)); w == 0 {
		t.Fatal("write heat dropped together with the combined heat")
	}
	if len(tr.AppendSnapshot(nil)) != 0 {
		t.Fatalf("heat-less block still counted: snapshot=%v", tr.AppendSnapshot(nil))
	}
	tr.Tick()
	if w := tr.WriteHeat(bid(0)); w != 0 {
		t.Fatalf("write heat %v survived its own floor", w)
	}
}

// The mover must behave exactly like the queue that compacts on every
// batch — same batches, same backlog, same stats — across replacements,
// stale drops, oversize refusals and backlogs that span many epochs
// (tiny budgets) as well as ones that drain at once (large budgets).
func TestMoverMatchesCompactingModel(t *testing.T) {
	tiers := []memsim.TierID{memsim.Tier0, memsim.Tier2}
	for _, budget := range []struct {
		bytes int64
		moves int
	}{{100, 3}, {400, 64}, {1 << 20, 1000}} {
		for seed := int64(1); seed <= 3; seed++ {
			r := rand.New(rand.NewSource(seed))
			got := NewMover(budget.bytes, budget.moves)
			want := newCompactingMover(budget.bytes, budget.moves)
			for step := 0; step < 1500; step++ {
				where := fmt.Sprintf("budget %v seed %d step %d", budget, seed, step)
				if r.Intn(10) < 8 {
					for n := r.Intn(12); n > 0; n-- {
						req := MoveRequest{
							ID:    blockmgr.BlockID{RDD: 1, Partition: r.Intn(60)},
							Bytes: int64(1 + r.Intn(60)),
							From:  tiers[r.Intn(2)],
							To:    tiers[r.Intn(2)],
						}
						if r.Intn(25) == 0 {
							req.Bytes = budget.bytes + 1
						}
						if g, w := got.Enqueue(req), want.Enqueue(req); g != w {
							t.Fatalf("%s: Enqueue(%+v) = %v, want %v", where, req, g, w)
						}
					}
				} else {
					// Staleness is a pure function of the request and
					// the step, so both queues see the same world.
					salt := r.Intn(7)
					valid := func(req MoveRequest) bool { return (req.ID.Partition+salt)%5 != 0 }
					if r.Intn(4) == 0 {
						valid = nil
					}
					g, w := got.NextBatch(valid), want.NextBatch(valid)
					if !reflect.DeepEqual(g, w) {
						t.Fatalf("%s: NextBatch\n got %v\nwant %v", where, g, w)
					}
				}
				if g, w := got.Pending(), want.Pending(); g != w {
					t.Fatalf("%s: Pending = %d, want %d", where, g, w)
				}
				if g, w := got.Stats(), want.Stats(); g != w {
					t.Fatalf("%s: Stats = %+v, want %+v", where, g, w)
				}
			}
		}
	}
}
