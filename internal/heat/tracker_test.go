package heat

import (
	"testing"

	"repro/internal/blockmgr"
)

func bid(p int) blockmgr.BlockID { return blockmgr.BlockID{RDD: 1, Partition: p} }

// heatOf is a block's heat as the tracker's snapshot records it, 0 for a
// block it does not hold.
func heatOf(tr Tracker, id blockmgr.BlockID) float64 {
	for _, s := range tr.AppendSnapshot(nil) {
		if s.ID == id {
			return s.Heat
		}
	}
	return 0
}

// The access tracker must reproduce the PR 5 ledger arithmetic exactly:
// put resets to 1, hit adds 1, tick multiplies by the decay factor, and
// sub-floor entries vanish.
func TestAccessTrackerLedgerCompat(t *testing.T) {
	tr := NewAccessTracker(0.5)
	tr.BlockPut(bid(0), 64)
	tr.BlockAccessed(bid(0), 64)
	tr.BlockAccessed(bid(0), 64)
	if got := heatOf(tr, bid(0)); got != 3 {
		t.Fatalf("heat after put+2 hits = %v, want 3", got)
	}
	tr.BlockPut(bid(0), 64)
	if got := heatOf(tr, bid(0)); got != 1 {
		t.Fatalf("overwrite did not reset heat: %v", got)
	}
	tr.Tick()
	if got := heatOf(tr, bid(0)); got != 0.5 {
		t.Fatalf("decayed heat = %v, want 0.5", got)
	}
	tr.BlockDropped(bid(0), 64)
	if len(tr.AppendSnapshot(nil)) != 0 || heatOf(tr, bid(0)) != 0 {
		t.Fatal("drop did not forget the block")
	}

	// Sub-floor entries are dropped entirely.
	tr.BlockPut(bid(1), 64)
	for i := 0; i < 40; i++ {
		tr.Tick()
	}
	if len(tr.AppendSnapshot(nil)) != 0 {
		t.Fatalf("decayed-out entry survived: len=%d", len(tr.AppendSnapshot(nil)))
	}
}

// The write EWMA accumulates across puts (unlike the combined heat,
// which a put resets) and decays with the same factor.
func TestAccessTrackerWriteHeat(t *testing.T) {
	tr := NewAccessTracker(0.5)
	for epoch := 0; epoch < 6; epoch++ {
		tr.BlockPut(bid(0), 64) // rewritten every epoch
		if epoch%2 == 0 {
			tr.BlockPut(bid(1), 64) // rewritten every other epoch
		}
		tr.BlockAccessed(bid(2), 64) // read-only block
		tr.Tick()
	}
	churn, slow, readonly := tr.WriteHeat(bid(0)), tr.WriteHeat(bid(1)), tr.WriteHeat(bid(2))
	if churn <= slow || slow <= readonly {
		t.Fatalf("write heat ordering wrong: churn=%v slow=%v readonly=%v", churn, slow, readonly)
	}
	if readonly != 0 {
		t.Fatalf("read-only block has write heat %v", readonly)
	}
	// Steady state of w' = (w+1)*0.5 is 1.
	if churn < 0.9 || churn > 1.1 {
		t.Fatalf("every-epoch writer settled at %v, want ~1", churn)
	}
}

// The idle tracker ages by epochs since last touch, with heat exactly
// HeatForAge(age).
func TestIdleTrackerAges(t *testing.T) {
	tr := NewIdleTracker()
	tr.BlockPut(bid(0), 64)
	tr.BlockPut(bid(1), 64)
	tr.Tick()
	tr.BlockAccessed(bid(0), 64)
	tr.Tick()

	if got := tr.since(tr.blocks.get(bid(0)).touched); got != 1 {
		t.Fatalf("touched block age = %d, want 1", got)
	}
	if got := tr.since(tr.blocks.get(bid(1)).touched); got != 2 {
		t.Fatalf("untouched block age = %d, want 2", got)
	}
	if got := heatOf(tr, bid(0)); got != HeatForAge(1) {
		t.Fatalf("heat = %v, want %v", got, HeatForAge(1))
	}
	if got := heatOf(tr, bid(1)); got != HeatForAge(2) {
		t.Fatalf("heat = %v, want %v", got, HeatForAge(2))
	}
	// Writes age independently of touches.
	if got, want := tr.WriteHeat(bid(0)), HeatForAge(2); got != want {
		t.Fatalf("write heat = %v, want %v (put 2 epochs ago)", got, want)
	}
	if got := tr.since(tr.blocks.get(bid(9)).touched); got != -1 {
		t.Fatalf("unknown block age = %d, want -1", got)
	}
	tr.BlockEvicted(bid(1), 64)
	if len(tr.AppendSnapshot(nil)) != 1 {
		t.Fatalf("eviction did not forget: len=%d", len(tr.AppendSnapshot(nil)))
	}
}

// Snapshots are sorted by block ID regardless of touch order.
func TestSnapshotsSorted(t *testing.T) {
	for _, tr := range []Tracker{NewAccessTracker(0.5), NewIdleTracker()} {
		for _, p := range []int{7, 2, 9, 0, 4} {
			tr.BlockPut(bid(p), 64)
		}
		snap := tr.AppendSnapshot(nil)
		if len(snap) != 5 {
			t.Fatalf("%T: snapshot has %d entries, want 5", tr, len(snap))
		}
		for i := 1; i < len(snap); i++ {
			if !snap[i-1].ID.Less(snap[i].ID) {
				t.Fatalf("%T: snapshot out of order at %d: %v", tr, i, snap)
			}
		}
	}
}
