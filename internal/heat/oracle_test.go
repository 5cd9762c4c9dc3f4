package heat

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/blockmgr"
)

// The reference implementations the model-based tests in model_test.go
// drive beside the real ones: the map-based trackers and the
// compact-every-batch mover queue as they stood before the id-ordered
// heat path. They are deliberately the obvious code — two maps per
// tracker, sorted at snapshot time; a queue whose every survivor is
// re-indexed per batch — so that "same answers as the obvious code" is
// what the tests assert.

// mapAccessTracker is the two-map AccessTracker.
type mapAccessTracker struct {
	decay float64
	heat  map[blockmgr.BlockID]float64
	write map[blockmgr.BlockID]float64
}

func newMapAccessTracker(decay float64) *mapAccessTracker {
	return &mapAccessTracker{
		decay: decay,
		heat:  make(map[blockmgr.BlockID]float64),
		write: make(map[blockmgr.BlockID]float64),
	}
}

var _ Tracker = (*mapAccessTracker)(nil)

// BlockAccessed bumps the block's heat by one touch.
func (t *mapAccessTracker) BlockAccessed(id blockmgr.BlockID, bytes int64) {
	t.heat[id]++
}

// BlockPut resets the block's combined heat to one touch and adds one to
// its write EWMA: the combined scalar forgets the previous incarnation
// (the data was rewritten), while the write component accumulates so a
// block rewritten every epoch reads as persistently write-hot.
func (t *mapAccessTracker) BlockPut(id blockmgr.BlockID, bytes int64) {
	t.heat[id] = 1
	t.write[id]++
}

// BlockEvicted forgets an LRU-evicted block.
func (t *mapAccessTracker) BlockEvicted(id blockmgr.BlockID, bytes int64) {
	delete(t.heat, id)
	delete(t.write, id)
}

// BlockDropped forgets an explicitly removed block.
func (t *mapAccessTracker) BlockDropped(id blockmgr.BlockID, bytes int64) {
	delete(t.heat, id)
	delete(t.write, id)
}

// Tick decays every entry by the configured factor, dropping entries
// that fall below the floor. Each entry is updated independently, so map
// iteration order cannot influence the result.
func (t *mapAccessTracker) Tick() {
	for id, h := range t.heat {
		h *= t.decay
		if h < heatFloor {
			delete(t.heat, id)
		} else {
			t.heat[id] = h
		}
	}
	for id, w := range t.write {
		w *= t.decay
		if w < heatFloor {
			delete(t.write, id)
		} else {
			t.write[id] = w
		}
	}
}

// WriteHeat returns the block's write EWMA (0 for unknown blocks).
func (t *mapAccessTracker) WriteHeat(id blockmgr.BlockID) float64 { return t.write[id] }

// AppendSnapshot appends Snapshot's samples to dst.
func (t *mapAccessTracker) AppendSnapshot(dst []Sample) []Sample { return append(dst, t.Snapshot()...) }

// Snapshot returns every tracked block's sample in block-ID order.
func (t *mapAccessTracker) Snapshot() []Sample {
	out := make([]Sample, 0, len(t.heat))
	for id, h := range t.heat {
		out = append(out, Sample{ID: id, Heat: h, Write: t.write[id]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Less(out[j].ID) })
	return out
}

// mapIdleTracker is the two-map IdleTracker.
type mapIdleTracker struct {
	epoch     int64
	lastTouch map[blockmgr.BlockID]int64
	lastPut   map[blockmgr.BlockID]int64
}

func newMapIdleTracker() *mapIdleTracker {
	return &mapIdleTracker{
		lastTouch: make(map[blockmgr.BlockID]int64),
		lastPut:   make(map[blockmgr.BlockID]int64),
	}
}

var _ Tracker = (*mapIdleTracker)(nil)

// BlockAccessed stamps the block as touched this epoch.
func (t *mapIdleTracker) BlockAccessed(id blockmgr.BlockID, bytes int64) {
	t.lastTouch[id] = t.epoch
}

// BlockPut stamps the block as touched and written this epoch.
func (t *mapIdleTracker) BlockPut(id blockmgr.BlockID, bytes int64) {
	t.lastTouch[id] = t.epoch
	t.lastPut[id] = t.epoch
}

// BlockEvicted forgets an LRU-evicted block.
func (t *mapIdleTracker) BlockEvicted(id blockmgr.BlockID, bytes int64) {
	delete(t.lastTouch, id)
	delete(t.lastPut, id)
}

// BlockDropped forgets an explicitly removed block.
func (t *mapIdleTracker) BlockDropped(id blockmgr.BlockID, bytes int64) {
	delete(t.lastTouch, id)
	delete(t.lastPut, id)
}

// Tick advances the epoch counter; every tracked block ages by one.
func (t *mapIdleTracker) Tick() { t.epoch++ }

// Age returns the epochs since the block was last touched, or -1 for
// unknown blocks.
func (t *mapIdleTracker) Age(id blockmgr.BlockID) int64 {
	last, ok := t.lastTouch[id]
	if !ok {
		return -1
	}
	return t.epoch - last
}

// Heat returns 1/(1+age) — exactly HeatForAge(t.Age(id)) — and 0 for
// unknown blocks.
func (t *mapIdleTracker) Heat(id blockmgr.BlockID) float64 {
	last, ok := t.lastTouch[id]
	if !ok {
		return 0
	}
	return HeatForAge(t.epoch - last)
}

// WriteHeat returns 1/(1+writeAge), aging from the last put.
func (t *mapIdleTracker) WriteHeat(id blockmgr.BlockID) float64 {
	last, ok := t.lastPut[id]
	if !ok {
		return 0
	}
	return HeatForAge(t.epoch - last)
}

// AppendSnapshot appends Snapshot's samples to dst.
func (t *mapIdleTracker) AppendSnapshot(dst []Sample) []Sample { return append(dst, t.Snapshot()...) }

// Snapshot returns every tracked block's sample in block-ID order.
func (t *mapIdleTracker) Snapshot() []Sample {
	out := make([]Sample, 0, len(t.lastTouch))
	for id := range t.lastTouch {
		out = append(out, Sample{ID: id, Heat: t.Heat(id), Write: t.WriteHeat(id)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Less(out[j].ID) })
	return out
}

// compactingMover is the Mover queue that compacts and re-indexes every
// survivor on every batch.
type compactingMover struct {
	maxBytes int64
	maxMoves int
	queue    []MoveRequest
	pending  map[blockmgr.BlockID]int // block -> index in queue
	stats    MoverStats
}

func newCompactingMover(maxBytes int64, maxMoves int) *compactingMover {
	return &compactingMover{
		maxBytes: maxBytes,
		maxMoves: maxMoves,
		pending:  make(map[blockmgr.BlockID]int),
	}
}

// Enqueue adds one desired move, replacing any pending request for the
// same block, and reports whether the request was accepted. A request
// bigger than the whole byte budget is refused — it could never ship.
func (m *compactingMover) Enqueue(req MoveRequest) bool {
	if req.Bytes > m.maxBytes {
		m.stats.RefusedOversize++
		return false
	}
	if i, ok := m.pending[req.ID]; ok {
		if m.queue[i] != req {
			m.stats.Replaced++
		}
		m.queue[i] = req
		m.stats.Enqueued++
		return true
	}
	m.pending[req.ID] = len(m.queue)
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
func (m *compactingMover) NextBatch(valid func(MoveRequest) bool) []MoveRequest {
	var batch []MoveRequest
	var batchBytes int64
	i := 0
	for ; i < len(m.queue); i++ {
		req := m.queue[i]
		if valid != nil && !valid(req) {
			m.stats.DroppedStale++
			delete(m.pending, req.ID)
			continue
		}
		if len(batch) >= m.maxMoves || batchBytes+req.Bytes > m.maxBytes {
			break
		}
		batch = append(batch, req)
		batchBytes += req.Bytes
		delete(m.pending, req.ID)
	}
	// Compact the survivors to the front and rebuild their indexes.
	rest := m.queue[:0]
	for ; i < len(m.queue); i++ {
		m.pending[m.queue[i].ID] = len(rest)
		rest = append(rest, m.queue[i])
	}
	m.queue = rest
	m.stats.Emitted += int64(len(batch))
	m.stats.EmittedBytes += batchBytes
	return batch
}

// Pending returns the number of queued requests.
func (m *compactingMover) Pending() int { return len(m.queue) }

// Stats returns the queue's lifetime counters.
func (m *compactingMover) Stats() MoverStats { return m.stats }

// The epoch tick's buffer reuse must not change what the heat layer
// says. Random event programs — a periodic backbone of touches, so the
// phase forecaster finds periods, under random puts, hits, evictions and
// drops — run for 40 epochs, long enough for the 12-epoch ring to
// recycle every buffer several times. Each epoch, the real tracker
// appends its snapshot into History.Spare's recycled buffer (its whole
// capacity scribbled over first) and must equal its map oracle's
// Snapshot; that history plus Chain.ForecastBuffered must then predict,
// epoch for epoch, exactly what a history fed Push(Snapshot()) plus
// Chain.Forecast predicts — over chains of two and three stages, so the
// ping-pong buffers are exercised past one swap.
func TestRecycledSnapshotsAndForecastsMatchFresh(t *testing.T) {
	const epochs, limit = 40, 12
	chains := [][]ForecasterKind{AllForecasters(), {Phase, Trend, Phase}, {Trend, Trend, Trend}}
	ids := modelIDs()
	var trended, phased int
	for seed := int64(1); seed <= 6; seed++ {
		for _, kinds := range chains {
			for _, idle := range []bool{false, true} {
				var got Tracker = NewAccessTracker(0.5)
				var want interface {
					Tracker
					Snapshot() []Sample
				} = newMapAccessTracker(0.5)
				if idle {
					got, want = NewIdleTracker(), newMapIdleTracker()
				}
				recycled, fresh := NewHistory(limit), NewHistory(limit)
				buffered, err := NewChain(kinds)
				if err != nil {
					t.Fatal(err)
				}
				plain, _ := NewChain(kinds)
				r := rand.New(rand.NewSource(seed))
				period := 2 + r.Intn(3)
				for epoch := 0; epoch < epochs; epoch++ {
					where := fmt.Sprintf("seed %d chain %v idle %v epoch %d", seed, kinds, idle, epoch)
					for i, id := range ids {
						if i%period == epoch%period {
							got.BlockAccessed(id, 64)
							want.BlockAccessed(id, 64)
						}
					}
					for n := r.Intn(6); n > 0; n-- {
						id := ids[r.Intn(len(ids))]
						switch r.Intn(4) {
						case 0:
							got.BlockPut(id, 64)
							want.BlockPut(id, 64)
						case 1:
							got.BlockAccessed(id, 64)
							want.BlockAccessed(id, 64)
						case 2:
							got.BlockEvicted(id, 64)
							want.BlockEvicted(id, 64)
						default:
							got.BlockDropped(id, 64)
							want.BlockDropped(id, 64)
						}
					}
					got.Tick()
					want.Tick()

					buf := recycled.Spare()
					if epoch >= limit && cap(buf) == 0 {
						t.Fatalf("%s: a full ring handed back no buffer", where)
					}
					dirty := buf[:cap(buf)]
					for i := range dirty {
						dirty[i] = Sample{ID: blockmgr.BlockID{RDD: 99, Partition: i}, Heat: -1, Write: -1}
					}
					snap := got.AppendSnapshot(buf)
					wantSnap := want.Snapshot()
					if !slices.Equal(snap, wantSnap) {
						t.Fatalf("%s: AppendSnapshot into a recycled buffer\n got %v\nwant %v", where, snap, wantSnap)
					}
					recycled.Push(snap)
					fresh.Push(wantSnap)
					if recycled.Epochs() != fresh.Epochs() {
						t.Fatalf("%s: recycled history holds %d epochs, fresh %d", where, recycled.Epochs(), fresh.Epochs())
					}
					pred := buffered.ForecastBuffered(recycled, snap)
					wantPred := plain.Forecast(fresh, wantSnap)
					if !slices.Equal(pred, wantPred) {
						t.Fatalf("%s: buffered forecast\n got %v\nwant %v", where, pred, wantPred)
					}
					if fresh.At(1) != nil {
						trended++
					}
					if detectPeriod(fresh) > 0 {
						phased++
					}
				}
			}
		}
	}
	if trended == 0 || phased == 0 {
		t.Fatalf("the programs never exercised a forecaster: trend acted %d times, phase %d", trended, phased)
	}
}
