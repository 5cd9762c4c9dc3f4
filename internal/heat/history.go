package heat

import (
	"slices"

	"repro/internal/blockmgr"
)

// History is a bounded ring of per-epoch heat snapshots for one tracker,
// newest last. Forecasters read it two ways: merge joins against a past
// epoch's ID-ordered samples (linear trend, phase replay) and the
// aggregate heat series (phase-period detection). Push is called exactly
// once per epoch tick by the tiering engine, on the driver goroutine.
type History struct {
	limit  int
	epochs []epochRecord
}

type epochRecord struct {
	samples []Sample // in block-ID order
	total   float64  // sum of Heat across samples
}

// NewHistory returns an empty history keeping the last limit epochs
// (limit < 2 is raised to 2 — forecasting needs at least one delta).
func NewHistory(limit int) *History {
	if limit < 2 {
		limit = 2
	}
	return &History{limit: limit}
}

// Push records one epoch's snapshot, evicting the oldest epoch past the
// limit. The samples must be in block-ID order — the order every tracker
// maintains, so Tracker.Snapshot output qualifies as it is.
func (h *History) Push(samples []Sample) {
	rec := epochRecord{samples: samples}
	for _, s := range samples {
		rec.total += s.Heat
	}
	h.epochs = append(h.epochs, rec)
	if len(h.epochs) > h.limit {
		copy(h.epochs, h.epochs[1:])
		h.epochs = h.epochs[:h.limit]
	}
}

// Spare returns an empty buffer for the next epoch's snapshot, recycling
// storage instead of letting every epoch allocate its own. Once the ring
// is full it evicts the oldest epoch now — the one the next Push would
// evict — and hands back that epoch's samples truncated to zero length;
// before that it returns nil, and the tracker's AppendSnapshot sizes a
// fresh buffer to its block count. The caller fills the buffer and
// pushes it, after which the history owns it again until it is evicted;
// a Spare not followed by Push leaves the history one epoch short.
func (h *History) Spare() []Sample {
	if len(h.epochs) < h.limit {
		return nil
	}
	buf := h.epochs[0].samples[:0]
	h.epochs = slices.Delete(h.epochs, 0, 1)
	return buf
}

// Epochs returns how many epochs are recorded (≤ the limit).
func (h *History) Epochs() int { return len(h.epochs) }

// At returns the snapshot back epochs ago (0 = the newest), or nil when
// the history is shorter than that.
func (h *History) At(back int) []Sample {
	if back < 0 || back >= len(h.epochs) {
		return nil
	}
	return h.epochs[len(h.epochs)-1-back].samples
}

// Total returns the aggregate heat back epochs ago (0 = the newest), or
// 0 when the history is shorter than that.
func (h *History) Total(back int) float64 {
	if back < 0 || back >= len(h.epochs) {
		return 0
	}
	return h.epochs[len(h.epochs)-1-back].total
}

// Seek advances a cursor over an ID-ordered snapshot to the first sample
// not before id and reports whether that sample is id's. Called with ids
// in increasing order it is one side of a merge join: joining two
// ID-ordered lists visits every sample once, where a search per block
// would start over each time.
func Seek(samples []Sample, cursor int, id blockmgr.BlockID) (int, bool) {
	for cursor < len(samples) && samples[cursor].ID.Less(id) {
		cursor++
	}
	return cursor, cursor < len(samples) && samples[cursor].ID == id
}
