package heat

import (
	"slices"

	"repro/internal/blockmgr"
)

// IdleTracker records, per block, how many epochs have passed since the
// block was last touched — memtier's idle-page aging. Heat is derived as
// 1/(1+age): a block touched during the current epoch reads exactly 1,
// one idle epoch halves it, and the mapping is strictly monotone in age
// so heat ordering is idle ordering reversed. The write component ages
// the same way from the last put, so WriteHeat == 1 identifies blocks
// rewritten this epoch.
type IdleTracker struct {
	// epoch starts at 1 so that a zero stamp means "never".
	epoch  int64
	blocks ledger[idleStamps]
}

// idleStamps are the epochs of one block's last touch and last put; a
// block that was only ever read has put == 0.
type idleStamps struct {
	touched int64
	put     int64
}

// NewIdleTracker returns an empty idle-age tracker.
func NewIdleTracker() *IdleTracker { return &IdleTracker{epoch: 1} }

var _ Tracker = (*IdleTracker)(nil)

// BlockAccessed stamps the block as touched this epoch.
func (t *IdleTracker) BlockAccessed(id blockmgr.BlockID, bytes int64) {
	t.blocks.record(id).touched = t.epoch
}

// BlockPut stamps the block as touched and written this epoch.
func (t *IdleTracker) BlockPut(id blockmgr.BlockID, bytes int64) {
	*t.blocks.record(id) = idleStamps{touched: t.epoch, put: t.epoch}
}

// BlockEvicted forgets an LRU-evicted block.
func (t *IdleTracker) BlockEvicted(id blockmgr.BlockID, bytes int64) { t.blocks.forget(id) }

// BlockDropped forgets an explicitly removed block.
func (t *IdleTracker) BlockDropped(id blockmgr.BlockID, bytes int64) { t.blocks.forget(id) }

// Tick advances the epoch counter; every tracked block ages by one.
func (t *IdleTracker) Tick() { t.epoch++ }

// since is the age of a stamp, -1 for one never set.
func (t *IdleTracker) since(stamp int64) int64 {
	if stamp == 0 {
		return -1
	}
	return t.epoch - stamp
}

// WriteHeat returns 1/(1+writeAge), aging from the last put.
func (t *IdleTracker) WriteHeat(id blockmgr.BlockID) float64 {
	return HeatForAge(t.since(t.blocks.get(id).put))
}

// HeatForAge maps an idle age (epochs since last touch) onto the heat
// scale: 1/(1+age). Policies thresholding on idle age compute the exact
// same expression, so float comparisons against tracker output are exact.
func HeatForAge(age int64) float64 {
	if age < 0 {
		return 0
	}
	return 1 / (1 + float64(age))
}

// AppendSnapshot appends every tracked block's sample: one pass over the
// cells, which are in block-ID order already.
func (t *IdleTracker) AppendSnapshot(dst []Sample) []Sample {
	dst = slices.Grow(dst, len(t.blocks.cells))
	for _, c := range t.blocks.cells {
		dst = append(dst, Sample{
			ID:    c.id,
			Heat:  HeatForAge(t.since(c.p.touched)),
			Write: HeatForAge(t.since(c.p.put)),
		})
	}
	return dst
}
