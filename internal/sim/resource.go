package sim

import "fmt"

// FlowTicket identifies one flow submitted with SubmitTo, for Withdraw.
// Like Ticket it carries a generation, so withdrawing a flow that already
// completed or was withdrawn is a no-op even after its slot is reused.
// The zero FlowTicket matches no flow.
type FlowTicket struct {
	slot int32
	gen  uint64
}

// flowSlot is one flow's storage in a server's slab.
type flowSlot struct {
	remaining float64 // work units left (e.g. bytes)
	gen       uint64  // 0 marks a free or finished slot
	h         Handler
	tag       int32
}

// Flow is a transfer submitted with Submit: an adapter over the typed
// SubmitTo path that calls a closure on completion.
type Flow struct {
	done func(now Time)
}

// Fire implements Handler for the closure adapter.
func (f *Flow) Fire(now Time, _ int32) {
	if f.done != nil {
		f.done(now)
	}
}

// SharedServer models a capacity shared among concurrent flows with
// processor sharing: at any instant each of n active flows is served at
// rate capacity / n. This is the standard fluid model for a memory
// channel or network link and is what produces bandwidth contention between
// concurrently running tasks in the memory simulator.
//
// Capacity is in work units per second (e.g. bytes/s). The server lazily
// re-plans its single "next completion" event whenever membership or
// capacity changes. Flow completions at identical instants fire in
// submission order, keeping runs deterministic. Flows live as value slots
// in a slab reused through a free list, and the server is its own
// completion Handler, so a flow costs no allocation once the slab has
// grown to the peak number of concurrent flows.
type SharedServer struct {
	kernel     *Kernel
	capacity   float64 // units per second at full speed
	capFrac    float64 // throttle in (0,1], e.g. Intel MBA style cap
	slots      []flowSlot
	free       []int32 // free slot indices
	active     []int32 // active flow slots in submission order
	done       []int32 // flows drained by the current completion event
	gen        uint64  // last flow generation handed out
	lastUpdate Time
	next       Ticket
}

// NewSharedServer creates a server bound to k with the given capacity in
// units/second. capacity must be positive.
func NewSharedServer(k *Kernel, name string, capacity float64) *SharedServer {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: non-positive capacity %g for %s", capacity, name))
	}
	return &SharedServer{
		kernel:     k,
		capacity:   capacity,
		capFrac:    1,
		lastUpdate: k.Now(),
	}
}

// SetCapFraction throttles the server to frac of its capacity, mimicking
// Intel's Memory Bandwidth Allocation knob. frac is clamped to (0, 1].
func (s *SharedServer) SetCapFraction(frac float64) {
	if frac <= 0 {
		frac = 0.01
	}
	if frac > 1 {
		frac = 1
	}
	s.advance()
	s.capFrac = frac
	s.replan()
}

// Submit adds a flow of `units` work and calls done when the flow
// completes. Zero or negative work completes via a zero-delay event,
// preserving event ordering relative to other same-instant activity.
func (s *SharedServer) Submit(units float64, done func(now Time)) *Flow {
	f := &Flow{done: done}
	s.SubmitTo(units, f, 0)
	return f
}

// SubmitTo adds a flow of `units` work and calls h.Fire(now, tag) when it
// completes. Zero or negative work completes via a zero-delay event,
// preserving event ordering relative to other same-instant activity; such
// a flow is never active, so its ticket is the zero FlowTicket.
func (s *SharedServer) SubmitTo(units float64, h Handler, tag int32) FlowTicket {
	if units <= 0 {
		s.kernel.Schedule(s.kernel.Now(), h, tag)
		return FlowTicket{}
	}
	s.advance()
	var i int32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		i = int32(len(s.slots))
		s.slots = append(s.slots, flowSlot{})
	}
	s.gen++
	s.slots[i] = flowSlot{remaining: units, gen: s.gen, h: h, tag: tag}
	s.active = append(s.active, i)
	s.replan()
	return FlowTicket{slot: i, gen: s.gen}
}

// Withdraw removes a flow without completing it (e.g. task aborted).
// Withdrawing a finished or already withdrawn flow is a no-op.
func (s *SharedServer) Withdraw(t FlowTicket) {
	if t.gen == 0 || s.slots[t.slot].gen != t.gen {
		return
	}
	s.advance()
	for j, i := range s.active {
		if i == t.slot {
			s.active = append(s.active[:j], s.active[j+1:]...)
			break
		}
	}
	s.release(t.slot)
	s.replan()
}

// release returns flow slot i to the free list.
func (s *SharedServer) release(i int32) {
	s.slots[i] = flowSlot{}
	s.free = append(s.free, i)
}

// advance serves all active flows for the time elapsed since lastUpdate at
// the current per-flow rates, without completing any of them.
func (s *SharedServer) advance() {
	now := s.kernel.Now()
	if now == s.lastUpdate {
		return
	}
	dt := (now - s.lastUpdate).Seconds()
	s.lastUpdate = now
	if len(s.active) == 0 {
		return
	}
	rate := s.capacity * s.capFrac / float64(len(s.active))
	for _, i := range s.active {
		f := &s.slots[i]
		servedUnits := rate * dt
		if servedUnits > f.remaining {
			servedUnits = f.remaining
		}
		f.remaining -= servedUnits
	}
}

// replan cancels the pending completion event and schedules the next one.
func (s *SharedServer) replan() {
	s.kernel.Cancel(s.next)
	s.next = Ticket{}
	if len(s.active) == 0 {
		return
	}
	rate := s.capacity * s.capFrac / float64(len(s.active))
	var soonest Time = MaxTime
	for _, i := range s.active {
		dt := s.slots[i].remaining / rate // seconds
		ns := Time(dt*1e9 + 0.999)
		if ns < 1 {
			// Guarantee forward progress: a sub-nanosecond residue is
			// served within the next tick, otherwise the completion
			// event could re-fire at the same instant forever.
			ns = 1
		}
		if t := s.kernel.Now() + ns; t < soonest {
			soonest = t
		}
	}
	s.next = s.kernel.Schedule(soonest, s, 0)
}

// Fire implements Handler: it is the server's own completion event, due
// when the earliest flow should have drained. It serves elapsed time,
// completes every drained flow in submission order (the order s.active
// is kept in), and replans the next completion.
func (s *SharedServer) Fire(now Time, _ int32) {
	s.next = Ticket{}
	s.advance()
	s.done = s.done[:0]
	remaining := s.active[:0]
	for _, i := range s.active {
		if f := &s.slots[i]; f.remaining <= 1e-6 {
			f.gen = 0 // finished: a Withdraw from a completion below is a no-op
			s.done = append(s.done, i)
		} else {
			remaining = append(remaining, i)
		}
	}
	s.active = remaining
	s.replan()
	for _, i := range s.done {
		h, tag := s.slots[i].h, s.slots[i].tag
		s.release(i)
		h.Fire(now, tag)
	}
}
