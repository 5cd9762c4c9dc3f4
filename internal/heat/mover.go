package heat

import (
	"fmt"

	"repro/internal/blockmgr"
	"repro/internal/memsim"
)

// MoveRequest is one desired block migration, the currency between a
// planning policy and the Mover queue.
type MoveRequest struct {
	ID    blockmgr.BlockID
	Bytes int64
	From  memsim.TierID
	To    memsim.TierID
}

// MoverStats counts the queue's lifetime activity.
type MoverStats struct {
	// Enqueued counts accepted requests (replacements of a pending
	// request for the same block count once per Enqueue call).
	Enqueued int64
	// Replaced counts enqueues that superseded a pending request for
	// the same block instead of growing the queue.
	Replaced int64
	// Emitted and EmittedBytes count requests handed out in batches.
	Emitted      int64
	EmittedBytes int64
	// DroppedStale counts queued requests discarded because the
	// caller's validity check rejected them at batch time (block gone,
	// residency changed underneath the queue).
	DroppedStale int64
	// RefusedOversize counts requests rejected at Enqueue because a
	// single block exceeds the per-epoch byte budget — such a block can
	// never ship within the rate limit.
	RefusedOversize int64
}

// Mover is the rate-limited migration queue, memtier's mover ported to
// virtual epochs: policies enqueue as many desired moves as they like,
// and each epoch NextBatch emits a plan bounded by a byte and a move
// budget, deferring the backlog to later epochs. The queue is FIFO and
// never reorders or skips ahead — policies enqueue in priority order,
// and shipping a smaller lower-priority block before a bigger
// higher-priority one would subvert that order (the same argument as the
// bandwidth policy's truncate-don't-skip rule). One block has at most
// one pending request: re-enqueueing replaces it in place, so a block
// that reheats before its demotion ships simply has its request
// rewritten (or dropped as stale once residency makes it a no-op).
//
// Driver-goroutine only, like every heat structure: the tiering engine
// enqueues and drains at epoch ticks.
type Mover struct {
	maxBytes int64
	maxMoves int
	// queue[head:] is the live backlog; queue[:head] has already been
	// emitted or dropped and is reclaimed lazily. seq0 is the sequence
	// number of queue[0]: a request's sequence number never changes while
	// it is queued, so pending stays valid when the queue is compacted.
	queue   []MoveRequest
	head    int
	seq0    int
	pending map[blockmgr.BlockID]int // block -> sequence number
	stats   MoverStats
}

// NewMover builds a queue emitting at most maxBytes and maxMoves per
// batch; both budgets must be positive.
func NewMover(maxBytes int64, maxMoves int) *Mover {
	if maxBytes <= 0 || maxMoves <= 0 {
		panic(fmt.Sprintf("heat: mover budgets must be positive (bytes=%d moves=%d)", maxBytes, maxMoves))
	}
	return &Mover{
		maxBytes: maxBytes,
		maxMoves: maxMoves,
		pending:  make(map[blockmgr.BlockID]int),
	}
}

// Enqueue adds one desired move, replacing any pending request for the
// same block, and reports whether the request was accepted. A request
// bigger than the whole byte budget is refused — it could never ship.
func (m *Mover) Enqueue(req MoveRequest) bool {
	if req.Bytes > m.maxBytes {
		m.stats.RefusedOversize++
		return false
	}
	if seq, ok := m.pending[req.ID]; ok {
		i := seq - m.seq0
		if m.queue[i] != req {
			m.stats.Replaced++
		}
		m.queue[i] = req
		m.stats.Enqueued++
		return true
	}
	m.pending[req.ID] = m.seq0 + len(m.queue)
	m.queue = append(m.queue, req)
	m.stats.Enqueued++
	return true
}

// NextBatch emits the next epoch's plan: queued requests in FIFO order,
// stale ones (valid returns false) dropped, stopping at the first valid
// request that does not fit the remaining byte budget or once the move
// budget is reached. The emitted and dropped requests leave the queue;
// everything after the stopping point stays pending for later epochs. A
// nil valid accepts everything.
func (m *Mover) NextBatch(valid func(MoveRequest) bool) []MoveRequest {
	return m.AppendNextBatch(nil, valid)
}

// AppendNextBatch is NextBatch appending the batch to dst instead of a
// fresh slice, so a caller that keeps its buffer across epochs emits
// without allocating.
func (m *Mover) AppendNextBatch(dst []MoveRequest, valid func(MoveRequest) bool) []MoveRequest {
	n := 0
	var batchBytes int64
	i := m.head
	for ; i < len(m.queue); i++ {
		req := m.queue[i]
		if valid != nil && !valid(req) {
			m.stats.DroppedStale++
			delete(m.pending, req.ID)
			continue
		}
		if n >= m.maxMoves || batchBytes+req.Bytes > m.maxBytes {
			break
		}
		dst = append(dst, req)
		n++
		batchBytes += req.Bytes
		delete(m.pending, req.ID)
	}
	m.head = i
	// Reclaim the consumed prefix only once it is at least as long as
	// the backlog behind it: the copy is then paid for by requests that
	// already left, however many batches a long backlog takes to drain.
	if rest := len(m.queue) - m.head; m.head >= rest {
		copy(m.queue, m.queue[m.head:])
		m.queue = m.queue[:rest]
		m.seq0 += m.head
		m.head = 0
	}
	m.stats.Emitted += int64(n)
	m.stats.EmittedBytes += batchBytes
	return dst
}

// Pending returns the number of queued requests.
func (m *Mover) Pending() int { return len(m.queue) - m.head }

// Stats returns the queue's lifetime counters.
func (m *Mover) Stats() MoverStats { return m.stats }
