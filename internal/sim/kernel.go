// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock measured in nanoseconds and an event
// queue ordered by (time, sequence). All higher-level simulated components
// (memory channels, executors, schedulers) post events to a Kernel and never
// consult wall-clock time, which makes every experiment in this repository
// reproducible bit-for-bit.
package sim

import (
	"fmt"
	"math"
)

// Time is a virtual timestamp in nanoseconds since the start of a run.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = Time

// Common durations, mirroring the time package for readability.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time. It is used as a
// sentinel for "never" when scheduling conditional completions.
const MaxTime Time = math.MaxInt64

// Seconds converts a virtual duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", float64(t)/1e3)
	case t < Second:
		return fmt.Sprintf("%.2fms", float64(t)/1e6)
	default:
		return fmt.Sprintf("%.3fs", float64(t)/1e9)
	}
}

// Handler receives typed kernel events: Fire runs when an event scheduled
// with Schedule comes due, with the tag it was scheduled under. A
// simulator that owns many pending events implements Handler once and
// tells them apart by tag (an attempt or flow index), so scheduling an
// event allocates nothing.
type Handler interface {
	Fire(now Time, tag int32)
}

// Ticket identifies one scheduled event for Cancel. It carries the
// event's sequence number as a generation: once the event fires or is
// cancelled its slot is reused under a new sequence number, so a stale
// ticket never matches again. The zero Ticket matches no event.
type Ticket struct {
	slot int32
	gen  uint64
}

// slot is one pending event's handler in the kernel's slab.
type slot struct {
	h   Handler
	gen uint64 // the event's sequence number; 0 marks a free slot
	tag int32
	pos int32 // index of the event's entry in the heap
}

// entry is one heap element: an event's time inline, so sifting compares
// without touching the slab except to break a tie on seq, and its slot.
type entry struct {
	at   Time
	slot int32
}

// Event is a callback scheduled with At or After: an adapter over the
// typed Schedule path, for one-off events. Events fire in (At, seq)
// order, so two events scheduled for the same instant fire in scheduling
// order.
type Event struct {
	At Time
	fn func(now Time)
}

// Fire implements Handler for the closure adapter.
func (e *Event) Fire(now Time, _ int32) { e.fn(now) }

// Kernel is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all simulated activity runs inside event callbacks.
//
// Pending events live as value slots in a slab, reused through a free
// list, and a hand-written binary min-heap of slot indices, each carrying
// its event's time, orders them by (At, seq). Scheduling and firing
// therefore allocate nothing once the slab has grown to the run's peak
// queue length.
type Kernel struct {
	now   Time
	slots []slot
	free  []int32 // free slot indices
	heap  []entry // pending events, a min-heap on (at, slot gen)
	seq   uint64  // last sequence number handed out
	fired uint64  // events executed; the livelock regression test bounds it
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Schedule queues h.Fire(t, tag) at absolute virtual time t. Scheduling in
// the past panics: that is always a logic error in a discrete-event model.
func (k *Kernel) Schedule(t Time, h Handler, tag int32) Ticket {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, k.now))
	}
	var i int32
	if n := len(k.free); n > 0 {
		i = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		i = int32(len(k.slots))
		k.slots = append(k.slots, slot{})
	}
	k.seq++
	k.slots[i] = slot{h: h, gen: k.seq, tag: tag}
	k.heap = append(k.heap, entry{})
	k.up(len(k.heap)-1, entry{at: t, slot: i})
	return Ticket{slot: i, gen: k.seq}
}

// Cancel removes the ticket's event from the queue. Cancelling an
// already-fired or already-cancelled event is a no-op.
func (k *Kernel) Cancel(t Ticket) {
	if t.gen == 0 || k.slots[t.slot].gen != t.gen {
		return
	}
	k.remove(int(k.slots[t.slot].pos))
	k.release(t.slot)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: that is always a logic error in a discrete-event model.
func (k *Kernel) At(t Time, fn func(now Time)) *Event {
	e := &Event{At: t, fn: fn}
	k.Schedule(t, e, 0)
	return e
}

// After schedules fn to run d nanoseconds from now.
func (k *Kernel) After(d Duration, fn func(now Time)) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return k.At(k.now+d, fn)
}

// Run executes events until the queue is empty and returns the final clock.
func (k *Kernel) Run() Time {
	for len(k.heap) > 0 {
		k.step()
	}
	return k.now
}

// RunUntil executes events with At <= deadline. Remaining events stay
// queued, and the clock ends at the deadline (or later, if it already
// was): the caller asked for that much virtual time to pass.
func (k *Kernel) RunUntil(deadline Time) Time {
	for len(k.heap) > 0 && k.heap[0].at <= deadline {
		k.step()
	}
	if k.now < deadline {
		k.now = deadline
	}
	return k.now
}

// step pops and fires the earliest event. Its slot is released before
// the handler runs, so the handler may schedule into it.
func (k *Kernel) step() {
	at, i := k.heap[0].at, k.heap[0].slot
	k.remove(0)
	h, tag := k.slots[i].h, k.slots[i].tag
	k.release(i)
	if at < k.now {
		panic("sim: time went backwards")
	}
	k.now = at
	k.fired++
	h.Fire(at, tag)
}

// release returns slot i to the free list.
func (k *Kernel) release(i int32) {
	k.slots[i] = slot{}
	k.free = append(k.free, i)
}

// remove deletes the heap entry at position j, refilling the hole with
// the last entry.
func (k *Kernel) remove(j int) {
	last := len(k.heap) - 1
	e := k.heap[last]
	k.heap = k.heap[:last]
	if j == last {
		return
	}
	if !k.down(j, e) {
		k.up(j, e)
	}
}

// before orders heap entries by (at, seq).
func (k *Kernel) before(x, y entry) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return k.slots[x.slot].gen < k.slots[y.slot].gen
}

// place stores e at heap position j and records the position in its slot.
func (k *Kernel) place(j int, e entry) {
	k.heap[j] = e
	k.slots[e.slot].pos = int32(j)
}

// up sifts e from the hole at position j toward the root.
func (k *Kernel) up(j int, e entry) {
	for j > 0 {
		parent := (j - 1) / 2
		if !k.before(e, k.heap[parent]) {
			break
		}
		k.place(j, k.heap[parent])
		j = parent
	}
	k.place(j, e)
}

// down sifts e from the hole at position j toward the leaves and reports
// whether it moved.
func (k *Kernel) down(j int, e entry) bool {
	start, n := j, len(k.heap)
	for {
		c := 2*j + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && k.before(k.heap[r], k.heap[c]) {
			c = r
		}
		if !k.before(k.heap[c], e) {
			break
		}
		k.place(j, k.heap[c])
		j = c
	}
	k.place(j, e)
	return j > start
}
