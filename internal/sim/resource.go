package sim

import "fmt"

// Flow is one active transfer on a SharedServer. Flows receive an equal
// share of the server's capacity (processor sharing).
type Flow struct {
	remaining float64 // work units left (e.g. bytes)
	done      func(now Time)
	finished  bool
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
// submission order, keeping runs deterministic.
type SharedServer struct {
	kernel     *Kernel
	capacity   float64 // units per second at full speed
	capFrac    float64 // throttle in (0,1], e.g. Intel MBA style cap
	flows      []*Flow // active flows in submission order
	lastUpdate Time
	next       *Event
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
	f := &Flow{remaining: units, done: done}
	if units <= 0 {
		f.finished = true
		s.kernel.After(0, func(now Time) {
			if done != nil {
				done(now)
			}
		})
		return f
	}
	s.advance()
	s.flows = append(s.flows, f)
	s.replan()
	return f
}

// CancelFlow removes a flow without completing it (e.g. task aborted).
func (s *SharedServer) CancelFlow(f *Flow) {
	if f == nil || f.finished {
		return
	}
	s.advance()
	f.finished = true
	s.removeFlow(f)
	s.replan()
}

func (s *SharedServer) removeFlow(f *Flow) {
	for i, g := range s.flows {
		if g == f {
			s.flows = append(s.flows[:i], s.flows[i+1:]...)
			return
		}
	}
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
	if len(s.flows) == 0 {
		return
	}
	rate := s.capacity * s.capFrac / float64(len(s.flows))
	for _, f := range s.flows {
		servedUnits := rate * dt
		if servedUnits > f.remaining {
			servedUnits = f.remaining
		}
		f.remaining -= servedUnits
	}
}

// replan cancels the pending completion event and schedules the next one.
func (s *SharedServer) replan() {
	if s.next != nil {
		s.next.Cancel()
		s.next = nil
	}
	if len(s.flows) == 0 {
		return
	}
	rate := s.capacity * s.capFrac / float64(len(s.flows))
	var soonest Time = MaxTime
	for _, f := range s.flows {
		dt := f.remaining / rate // seconds
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
	s.next = s.kernel.At(soonest, s.onCompletion)
}

// onCompletion fires when the earliest flow should have drained. It serves
// elapsed time, completes every drained flow in submission order (the
// order s.flows is kept in), and replans the next completion.
func (s *SharedServer) onCompletion(now Time) {
	s.next = nil
	s.advance()
	var doneFlows []*Flow
	remaining := s.flows[:0]
	for _, f := range s.flows {
		if f.remaining <= 1e-6 {
			f.finished = true
			doneFlows = append(doneFlows, f)
		} else {
			remaining = append(remaining, f)
		}
	}
	s.flows = remaining
	s.replan()
	for _, f := range doneFlows {
		if f.done != nil {
			f.done(now)
		}
	}
}
