// Package heat is the intelligence layer behind dynamic tiering: it
// turns the block manager's lifecycle events into per-block hotness,
// buckets that hotness into heatmaps, *predicts* the next epoch's
// heatmap, and converts the result into bounded migration work. It is a
// port of the cri-resource-manager memtier architecture (pkg/memtier)
// onto the simulator's deterministic block vocabulary:
//
//   - Tracker (tracker_access.go, tracker_idle.go) — pluggable per-block
//     hotness accounting over an id-ordered dense ledger, fed exclusively
//     from blockmgr.Observer commit-time callbacks. AccessTracker is the exponentially decayed
//     access counter (memtier's counters_heatmap); IdleTracker records
//     epochs since last touch (memtier's idlepage-style aging).
//   - Classifier (classifier.go) — buckets per-block heat into a
//     Heatmap histogram with configurable class boundaries, the shape
//     policies, gauges and reports reason about.
//   - Forecaster (forecaster.go, forecaster_trend.go,
//     forecaster_phase.go) — chainable next-epoch heat prediction over a
//     bounded History of past snapshots, memtier's heatforecaster_chain.
//   - Mover (mover.go) — a rate-limited migration queue: policies
//     enqueue desired moves, the queue emits per-epoch batches bounded
//     by a byte and move budget, deferring the backlog.
//
// Everything in this package is driven from the driver goroutine (the
// block manager replays observer events at commit time in partition
// order, and the tiering engine ticks at stage boundaries), so no part
// of it locks and every output is deterministic for any phase-1 worker
// count. No wall clock, no unseeded randomness, no map-order dependence:
// block-ID order is maintained where per-block state lives (ledger.go),
// not produced by sorting when somebody reads it, so snapshots come out
// in ID order, consumers join them cursor against cursor, and
// histograms index by class.
package heat

import "repro/internal/blockmgr"

// Sample is one block's heat at one epoch. Heat is the generic hotness
// scalar every consumer orders by (higher = hotter); Write isolates the
// write component so policies can tell a read-hot block (worth promoting
// to DRAM) from a write-churned one (whose next rewrite lands it back on
// the landing tier anyway, wasting the promotion).
type Sample struct {
	ID    blockmgr.BlockID
	Heat  float64
	Write float64
}

// Tracker is pluggable per-block hotness accounting. It consumes the
// block manager's lifecycle events (install it with
// blockmgr.Manager.SetObserver — all callbacks arrive on the driver
// goroutine in partition order) and advances one epoch per Tick, which
// the tiering engine calls at stage boundaries.
type Tracker interface {
	blockmgr.Observer

	// Tick advances one epoch: decay for counter trackers, aging for
	// idle trackers.
	Tick()
	// WriteHeat returns the write component of a block's hotness (0 for
	// unknown blocks, and 0 always for trackers that do not separate
	// writes).
	WriteHeat(id blockmgr.BlockID) float64
	// AppendSnapshot appends the sample of every block with recorded
	// heat to dst, in block-ID order — the order the tracker keeps its
	// blocks in, so nothing is sorted here — and returns the extended
	// slice. It is the deterministic per-epoch record History
	// accumulates; dst is grown at most once, so the tiering engine
	// passes History.Spare's recycled buffer and a warm tick allocates
	// nothing here.
	AppendSnapshot(dst []Sample) []Sample
}
