package heat

import (
	"slices"

	"repro/internal/blockmgr"
)

// ledger is the trackers' per-block store: one cell per tracked block,
// kept sorted by block id as events arrive, so the epoch tick walks it
// linearly and a snapshot comes out in id order without sorting. P is
// the tracker's per-block state; its zero value must read as "nothing
// recorded", because record hands out zero cells for unknown blocks.
type ledger[P any] struct {
	cells []cell[P]
	// last is where the previous find landed — a hint only, never
	// trusted without comparing ids. The block manager replays events in
	// partition order, so the next event is usually for the next cell.
	last int
}

type cell[P any] struct {
	id blockmgr.BlockID
	p  P
}

// find returns the position of id's cell, or the position it would be
// inserted at, and whether it is there.
func (l *ledger[P]) find(id blockmgr.BlockID) (int, bool) {
	if i := l.last + 1; i < len(l.cells) && l.cells[i].id == id {
		l.last = i
		return i, true
	}
	lo, hi := 0, len(l.cells)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.cells[mid].id.Less(id) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	l.last = lo
	return lo, lo < len(l.cells) && l.cells[lo].id == id
}

// get returns the block's state, the zero P for unknown blocks.
func (l *ledger[P]) get(id blockmgr.BlockID) P {
	if i, ok := l.find(id); ok {
		return l.cells[i].p
	}
	var none P
	return none
}

// record returns the block's state for updating, inserting a zero cell
// for an unknown block. The pointer is valid until the next record or
// forget.
func (l *ledger[P]) record(id blockmgr.BlockID) *P {
	i, ok := l.find(id)
	if !ok {
		l.cells = slices.Insert(l.cells, i, cell[P]{id: id})
	}
	return &l.cells[i].p
}

// forget removes the block's cell, if any.
func (l *ledger[P]) forget(id blockmgr.BlockID) {
	if i, ok := l.find(id); ok {
		l.cells = slices.Delete(l.cells, i, i+1)
		l.last = i - 1 // the next cell moved into i
	}
}
