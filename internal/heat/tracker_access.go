package heat

import (
	"slices"

	"repro/internal/blockmgr"
)

// heatFloor is the heat below which a decayed entry is dropped from the
// tracker, bounding its size by the set of recently touched blocks.
const heatFloor = 1e-9

// AccessTracker is the exponentially decayed access counter, the PR 5
// hotness ledger refactored behind the Tracker interface with one
// addition: alongside the combined heat it keeps a write-only EWMA fed
// by puts, so consumers can recognize write-churned blocks. The combined
// heat's arithmetic is unchanged from the old tiering.Ledger — a put
// resets to one touch (the store rewrote the data, history from the
// previous incarnation is stale), a hit adds one, Tick multiplies by the
// decay factor and drops entries under the floor.
//
// Both components live in one id-ordered cell per block, and a zero
// component is an absent one: recorded heat is at least the floor, so
// zero is free to mean "no entry". Heat and write heat therefore still
// decay out independently — a block whose combined heat has dropped
// leaves Snapshot while its write heat lives on.
type AccessTracker struct {
	decay  float64
	blocks ledger[accessHeat]
}

// accessHeat is one block's decayed counters; zero means absent.
type accessHeat struct {
	heat  float64
	write float64
}

// NewAccessTracker returns an empty tracker decaying by the given factor
// per epoch.
func NewAccessTracker(decay float64) *AccessTracker {
	return &AccessTracker{decay: decay}
}

var _ Tracker = (*AccessTracker)(nil)

// BlockAccessed bumps the block's heat by one touch.
func (t *AccessTracker) BlockAccessed(id blockmgr.BlockID, bytes int64) {
	t.blocks.record(id).heat++
}

// BlockPut resets the block's combined heat to one touch and adds one to
// its write EWMA: the combined scalar forgets the previous incarnation
// (the data was rewritten), while the write component accumulates so a
// block rewritten every epoch reads as persistently write-hot.
func (t *AccessTracker) BlockPut(id blockmgr.BlockID, bytes int64) {
	c := t.blocks.record(id)
	c.heat = 1
	c.write++
}

// BlockEvicted forgets an LRU-evicted block.
func (t *AccessTracker) BlockEvicted(id blockmgr.BlockID, bytes int64) { t.blocks.forget(id) }

// BlockDropped forgets an explicitly removed block.
func (t *AccessTracker) BlockDropped(id blockmgr.BlockID, bytes int64) { t.blocks.forget(id) }

// Tick decays every entry by the configured factor in one pass over the
// cells, dropping components that fall below the floor and compacting
// away cells with neither component left.
func (t *AccessTracker) Tick() {
	live := t.blocks.cells[:0]
	for _, c := range t.blocks.cells {
		c.p.heat = t.decayed(c.p.heat)
		c.p.write = t.decayed(c.p.write)
		if c.p != (accessHeat{}) {
			live = append(live, c)
		}
	}
	t.blocks.cells = live
}

// decayed is one component after a tick; an absent one stays absent.
func (t *AccessTracker) decayed(h float64) float64 {
	if h *= t.decay; h < heatFloor {
		return 0
	}
	return h
}

// WriteHeat returns the block's write EWMA (0 for unknown blocks).
func (t *AccessTracker) WriteHeat(id blockmgr.BlockID) float64 { return t.blocks.get(id).write }

// AppendSnapshot appends the sample of every block with recorded heat: a
// filtered copy of the cells, which are in block-ID order already.
func (t *AccessTracker) AppendSnapshot(dst []Sample) []Sample {
	dst = slices.Grow(dst, len(t.blocks.cells))
	for _, c := range t.blocks.cells {
		if c.p.heat != 0 {
			dst = append(dst, Sample{ID: c.id, Heat: c.p.heat, Write: c.p.write})
		}
	}
	return dst
}

// Snapshot returns the same samples as AppendSnapshot in a fresh slice.
func (t *AccessTracker) Snapshot() []Sample { return t.AppendSnapshot(nil) }
