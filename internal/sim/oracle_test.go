package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// refKernel is the closure-and-pointer kernel the slab kernel replaced,
// kept as the oracle for TestKernelMatchesReference: one heap-allocated
// event per callback in a container/heap queue. Its RunUntil carries the
// deadline fix, so both advance the clock the same way.
type refKernel struct {
	now    Time
	queue  refQueue
	nextID uint64
	fired  uint64
}

type refEvent struct {
	At     Time
	fn     func(now Time)
	seq    uint64
	index  int
	dead   bool
	kernel *refKernel
}

func (e *refEvent) Cancel() {
	if e == nil || e.dead || e.index < 0 {
		if e != nil {
			e.dead = true
		}
		return
	}
	e.dead = true
	heap.Remove(&e.kernel.queue, e.index)
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].At != q[j].At {
		return q[i].At < q[j].At
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

func (k *refKernel) At(t Time, fn func(now Time)) *refEvent {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, k.now))
	}
	e := &refEvent{At: t, fn: fn, seq: k.nextID, kernel: k}
	k.nextID++
	heap.Push(&k.queue, e)
	return e
}

func (k *refKernel) Run() Time {
	for len(k.queue) > 0 {
		k.step()
	}
	return k.now
}

func (k *refKernel) RunUntil(deadline Time) Time {
	for len(k.queue) > 0 && k.queue[0].At <= deadline {
		k.step()
	}
	if k.now < deadline {
		k.now = deadline
	}
	return k.now
}

func (k *refKernel) step() {
	e := heap.Pop(&k.queue).(*refEvent)
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

// refServer is the pointer-per-flow SharedServer the slab server
// replaced: a method value per replan and a fresh done slice per
// completion.
type refServer struct {
	kernel     *refKernel
	capacity   float64
	capFrac    float64
	flows      []*refFlow
	lastUpdate Time
	next       *refEvent
}

type refFlow struct {
	remaining float64
	done      func(now Time)
	finished  bool
}

func (s *refServer) SetCapFraction(frac float64) {
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

func (s *refServer) Submit(units float64, done func(now Time)) *refFlow {
	f := &refFlow{remaining: units, done: done}
	if units <= 0 {
		f.finished = true
		s.kernel.At(s.kernel.now, func(now Time) {
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

func (s *refServer) CancelFlow(f *refFlow) {
	if f == nil || f.finished {
		return
	}
	s.advance()
	f.finished = true
	for i, g := range s.flows {
		if g == f {
			s.flows = append(s.flows[:i], s.flows[i+1:]...)
			break
		}
	}
	s.replan()
}

func (s *refServer) advance() {
	now := s.kernel.now
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

func (s *refServer) replan() {
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
		dt := f.remaining / rate
		ns := Time(dt*1e9 + 0.999)
		if ns < 1 {
			ns = 1
		}
		if t := s.kernel.now + ns; t < soonest {
			soonest = t
		}
	}
	s.next = s.kernel.At(soonest, s.onCompletion)
}

func (s *refServer) onCompletion(now Time) {
	s.next = nil
	s.advance()
	var doneFlows []*refFlow
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

// simTarget is the surface a random program runs against: the slab kernel and
// server, or the references.
type simTarget interface {
	now() Time
	schedule(t Time, fn func(Time)) // cancellable; handles count up from 0
	cancel(h int)
	submit(srv int, units float64, fn func(Time)) // withdrawable
	withdraw(h int)
	setCap(srv int, frac float64)
	runUntil(t Time) Time
	run() Time
	fired() uint64
}

type slabTarget struct {
	k       *Kernel
	servers []*SharedServer
	events  []Ticket
	flows   []FlowTicket
	owner   []int
}

func (d *slabTarget) now() Time { return d.k.Now() }
func (d *slabTarget) schedule(t Time, fn func(Time)) {
	if len(d.events)%3 == 2 {
		// Every third event goes through the closure adapter, which has
		// no ticket: cancelling it is a no-op on both sides only if the
		// reference skips it too, so its handle is marked uncancellable.
		d.k.At(t, fn)
		d.events = append(d.events, Ticket{})
		return
	}
	d.events = append(d.events, d.k.Schedule(t, fireFunc(fn), 0))
}
func (d *slabTarget) cancel(h int) { d.k.Cancel(d.events[h]) }
func (d *slabTarget) submit(srv int, units float64, fn func(Time)) {
	d.owner = append(d.owner, srv)
	if len(d.flows)%3 == 2 {
		d.servers[srv].Submit(units, fn)
		d.flows = append(d.flows, FlowTicket{})
		return
	}
	d.flows = append(d.flows, d.servers[srv].SubmitTo(units, fireFunc(fn), 0))
}
func (d *slabTarget) withdraw(h int)               { d.servers[d.owner[h]].Withdraw(d.flows[h]) }
func (d *slabTarget) setCap(srv int, frac float64) { d.servers[srv].SetCapFraction(frac) }
func (d *slabTarget) runUntil(t Time) Time         { return d.k.RunUntil(t) }
func (d *slabTarget) run() Time                    { return d.k.Run() }
func (d *slabTarget) fired() uint64                { return d.k.fired }

type refTarget struct {
	k       *refKernel
	servers []*refServer
	events  []*refEvent
	flows   []*refFlow
	owner   []int
}

func (d *refTarget) now() Time { return d.k.now }
func (d *refTarget) schedule(t Time, fn func(Time)) {
	e := d.k.At(t, fn)
	if len(d.events)%3 == 2 {
		e = nil
	}
	d.events = append(d.events, e)
}
func (d *refTarget) cancel(h int) { d.events[h].Cancel() }
func (d *refTarget) submit(srv int, units float64, fn func(Time)) {
	f := d.servers[srv].Submit(units, fn)
	if len(d.flows)%3 == 2 {
		f = nil
	}
	d.flows = append(d.flows, f)
	d.owner = append(d.owner, srv)
}
func (d *refTarget) withdraw(h int)               { d.servers[d.owner[h]].CancelFlow(d.flows[h]) }
func (d *refTarget) setCap(srv int, frac float64) { d.servers[srv].SetCapFraction(frac) }
func (d *refTarget) runUntil(t Time) Time         { return d.k.RunUntil(t) }
func (d *refTarget) run() Time                    { return d.k.Run() }
func (d *refTarget) fired() uint64                { return d.k.fired }

// fireRecord is one observed callback: which event or flow, and when.
type fireRecord struct {
	At Time
	ID int
}

// runProgram drives d through a random program derived from seed: events
// that, when they fire, schedule children, cancel earlier events, submit
// and withdraw flows on two servers and move their MBA caps, interleaved
// with RunUntil calls at random deadlines and a final Run. It returns the
// fire log plus the clock after every run call.
func runProgram(d simTarget, seed int64) (log []fireRecord, clocks []Time) {
	r := rand.New(rand.NewSource(seed))
	var ids, flowIDs int
	var act func(id int) func(Time)
	scheduleOne := func() {
		id := ids
		ids++
		d.schedule(d.now()+Time(r.Intn(50)), act(id))
	}
	act = func(id int) func(Time) {
		return func(now Time) {
			log = append(log, fireRecord{now, id})
			if ids > 400 {
				return
			}
			for n := r.Intn(3); n > 0; n-- {
				scheduleOne()
			}
			switch r.Intn(6) {
			case 0:
				d.cancel(r.Intn(ids))
			case 1, 2:
				fid := flowIDs
				flowIDs++
				units := float64(r.Intn(4000)) - 500 // some zero or negative work
				d.submit(r.Intn(2), units, func(now Time) { log = append(log, fireRecord{now, -1 - fid}) })
			case 3:
				if flowIDs > 0 {
					d.withdraw(r.Intn(flowIDs))
				}
			case 4:
				d.setCap(r.Intn(2), 0.1+0.9*r.Float64())
			}
		}
	}
	for n := 1 + r.Intn(8); n > 0; n-- {
		scheduleOne()
	}
	for n := r.Intn(4); n > 0; n-- {
		clocks = append(clocks, d.runUntil(d.now()+Time(r.Intn(80))))
		scheduleOne()
	}
	clocks = append(clocks, d.run())
	return log, clocks
}

// Property: the slab kernel and server, driven through both their typed
// entry points and their closure adapters, fire exactly the reference's
// (time, id) sequence, end every run call on the same clock and fire the
// same number of events.
func TestKernelMatchesReference(t *testing.T) {
	prop := func(seed int64) bool {
		k := NewKernel()
		slab := &slabTarget{k: k, servers: []*SharedServer{NewSharedServer(k, "a", 1e9), NewSharedServer(k, "b", 3e8)}}
		rk := &refKernel{}
		ref := &refTarget{k: rk, servers: []*refServer{{kernel: rk, capacity: 1e9, capFrac: 1}, {kernel: rk, capacity: 3e8, capFrac: 1}}}
		gotLog, gotClocks := runProgram(slab, seed)
		wantLog, wantClocks := runProgram(ref, seed)
		if !reflect.DeepEqual(gotLog, wantLog) || !reflect.DeepEqual(gotClocks, wantClocks) || slab.fired() != ref.fired() {
			t.Logf("seed %d: %d fires (clocks %v, %d events) vs reference %d (clocks %v, %d events)",
				seed, len(gotLog), gotClocks, slab.fired(), len(wantLog), wantClocks, ref.fired())
			return false
		}
		return len(gotLog) > 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
