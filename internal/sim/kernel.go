// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock measured in nanoseconds and an event
// queue ordered by (time, sequence). All higher-level simulated components
// (memory channels, executors, schedulers) post events to a Kernel and never
// consult wall-clock time, which makes every experiment in this repository
// reproducible bit-for-bit.
package sim

import (
	"container/heap"
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

// Event is a scheduled callback. Events fire in (At, seq) order, so two
// events scheduled for the same instant fire in scheduling order.
type Event struct {
	At     Time
	fn     func(now Time)
	seq    uint64
	index  int // heap index, -1 when not queued
	dead   bool
	kernel *Kernel
}

// Cancel removes the event from the queue. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Event) Cancel() {
	if e == nil || e.dead || e.index < 0 {
		if e != nil {
			e.dead = true
		}
		return
	}
	e.dead = true
	heap.Remove(&e.kernel.queue, e.index)
}

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].At != q[j].At {
		return q[i].At < q[j].At
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Kernel is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all simulated activity runs inside event callbacks.
type Kernel struct {
	now    Time
	queue  eventQueue
	nextID uint64
	fired  uint64 // events executed; the livelock regression test bounds it
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: that is always a logic error in a discrete-event model.
func (k *Kernel) At(t Time, fn func(now Time)) *Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, k.now))
	}
	e := &Event{At: t, fn: fn, seq: k.nextID, kernel: k}
	k.nextID++
	heap.Push(&k.queue, e)
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
	for len(k.queue) > 0 {
		k.step()
	}
	return k.now
}

// RunUntil executes events with At <= deadline. Remaining events stay
// queued; the clock is advanced to min(deadline, last fired event).
func (k *Kernel) RunUntil(deadline Time) Time {
	for len(k.queue) > 0 && k.queue[0].At <= deadline {
		k.step()
	}
	if k.now < deadline && len(k.queue) == 0 {
		k.now = deadline
	}
	return k.now
}

func (k *Kernel) step() {
	e := heap.Pop(&k.queue).(*Event)
	if e.dead {
		return
	}
	if e.At < k.now {
		panic("sim: time went backwards")
	}
	k.now = e.At
	e.dead = true
	k.fired++
	e.fn(k.now)
}
