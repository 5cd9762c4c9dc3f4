package executor

import (
	"repro/internal/memsim"
	"repro/internal/sim"
)

// SimTask is one task attempt's cost profile plus its executor
// assignment, ready for timing simulation.
type SimTask struct {
	Profile Profile
	ExecID  int
	// SlowFactor, when > 1, inflates the attempt's compute and
	// memory-stall time — a straggling executor. Zero or one means full
	// speed.
	SlowFactor float64
	// SpeculativeOf, when positive, marks this attempt as a speculative
	// clone of the task at slice index SpeculativeOf-1. The two attempts
	// race: the logical task completes at the earlier finish and the
	// losing attempt is killed (its queued work canceled, its core and
	// memory-activity slots freed), like Spark killing the zombie
	// attempt of a speculated task.
	SpeculativeOf int
}

// StageResult reports the outcome of simulating one stage.
type StageResult struct {
	// Makespan is the virtual time from stage launch to last task end,
	// including per-task dispatch and the stage overhead.
	Makespan sim.Time
	// MaxSharers is the peak number of concurrently memory-active tasks
	// observed on any tier (a contention diagnostic).
	MaxSharers int
	// StallNS is the summed memory-stall time across task attempts
	// (killed speculative attempts are charged in full — work launched
	// is work accounted).
	StallNS float64
	// CPUNS is the summed compute time across task attempts.
	CPUNS float64
	// Killed is the number of racing attempts canceled because the
	// other attempt of their task finished first.
	Killed int
}

// phase is an attempt's position in its life cycle. An attempt moves
// queued → cpu → stall → drain → done, or straight to done when it is
// killed; the phase alone tells the stage simulator which of the
// attempt's events is firing.
type phase uint8

const (
	queued   phase = iota // waiting for a core on its executor
	onCPU                 // compute and dispatch; its event ends the phase
	stalled               // memory stalls; its event ends the phase
	draining              // media traffic in flight on the tier servers
	done                  // finished or killed
)

// attempt is the simulation state of one SimTask while it runs: a value
// slot in the stage simulator's slab.
type attempt struct {
	logical   int32 // index of the logical task this attempt computes
	nextRival int32 // next attempt of the same logical task, -1 at the end
	factor    float64
	phase     phase
	ev        sim.Ticket // the cpu or stall event while one is pending
	ntiers    int
	tiers     [memsim.NumTiers]memsim.TierID
	flows     [memsim.NumTiers]sim.FlowTicket // one drain per touched tier
	pending   int                             // outstanding bandwidth drains
}

// stageSim is the discrete-event replay of one stage. Its slabs belong to
// the Pool and are reused from stage to stage, so a stage costs no
// allocation per attempt or per event once they have grown; the
// simulator itself is the kernel Handler for every attempt's events, with
// the attempt's index as tag.
type stageSim struct {
	k     *sim.Kernel
	pool  *Pool
	sys   *memsim.System
	tasks []SimTask
	cost  CostModel
	res   StageResult

	atts []attempt
	// firstOf[l] is logical task l's first attempt (-1 when it has none);
	// rivals follow through attempt.nextRival in index order.
	firstOf  []int32
	taskDone []bool // indexed by logical task
	// order holds the attempt indices stably bucketed by ExecID: executor
	// e's FIFO is order[head[e]:end[e]], in submission (partition) order.
	order     []int32
	head, end []int32
	busy      []int
	memActive [memsim.NumTiers]int
	lastEnd   sim.Time
}

// SimulateStage replays a stage's task attempts on the pool with a
// discrete-event simulation:
//
//   - each executor runs at most Cores attempts at once, FIFO beyond
//     that;
//   - a running attempt first spends its CPU + dispatch time (inflated by
//     the executor's heap-allocation contention — fat executors pay more
//     on scattered object churn — and by its straggler SlowFactor), then
//     its memory stalls (lines x loaded latency, inflated by the number
//     of concurrently memory-active tasks on each tier it touches and by
//     the SlowFactor), then drains its media bytes through each touched
//     tier's shared bandwidth server (processor sharing, subject to any
//     MBA cap);
//   - the attempt ends when every tier's drain completes. A logical task
//     completes when its first attempt ends; racing speculative attempts
//     are killed at that instant so they neither occupy cores nor extend
//     the virtual clock.
//
// The kernel's clock is advanced; the caller accumulates makespans across
// stages. Attempt order within an executor is submission (partition)
// order, deterministic for any phase-1 worker count. A pool simulates one
// stage at a time: its scratch is reused by the next call.
func SimulateStage(k *sim.Kernel, pool *Pool, tasks []SimTask, cost CostModel) StageResult {
	if len(tasks) == 0 {
		return StageResult{Makespan: sim.Time(cost.StageOverheadNS)}
	}
	s := &pool.des
	s.reset(k, pool, tasks, cost)
	start := k.Now()
	for execID := range s.busy {
		s.tryStart(execID)
	}
	k.Run()
	res := s.res
	res.Makespan = (s.lastEnd - start) + sim.Time(cost.StageOverheadNS)
	s.k, s.pool, s.sys, s.tasks = nil, nil, nil, nil
	return res
}

// reset sizes and clears the scratch for a stage of tasks: attempts
// linked to their rivals, and the per-executor FIFOs.
func (s *stageSim) reset(k *sim.Kernel, pool *Pool, tasks []SimTask, cost CostModel) {
	n, execs := len(tasks), pool.Size()
	s.k, s.pool, s.sys, s.tasks, s.cost = k, pool, pool.System(), tasks, cost
	s.res, s.memActive, s.lastEnd = StageResult{}, [memsim.NumTiers]int{}, 0
	s.atts = resize(s.atts, n)
	s.firstOf = resize(s.firstOf, n)
	s.taskDone = resize(s.taskDone, n)
	s.order = resize(s.order, n)
	s.head = resize(s.head, execs)
	s.end = resize(s.end, execs)
	s.busy = resize(s.busy, execs)
	for l := range s.firstOf {
		s.firstOf[l] = -1
	}
	for i := range tasks {
		t := &tasks[i]
		logical := int32(i)
		if t.SpeculativeOf > 0 {
			logical = int32(t.SpeculativeOf - 1)
		}
		factor := t.SlowFactor
		if factor <= 0 {
			factor = 1
		}
		s.atts[i] = attempt{logical: logical, factor: factor}
		s.res.CPUNS += t.Profile.CPUNS
		s.end[t.ExecID]++
	}
	// Link each logical task's attempts in index order, pushing from the
	// back.
	for i := n - 1; i >= 0; i-- {
		l := s.atts[i].logical
		s.atts[i].nextRival, s.firstOf[l] = s.firstOf[l], int32(i)
	}
	// Counting sort by executor: end[e] holds e's count, then its bucket
	// start; the stable scatter advances it to the bucket end.
	off := int32(0)
	for e, c := range s.end {
		s.head[e], s.end[e] = off, off
		off += c
	}
	for i := range tasks {
		e := tasks[i].ExecID
		s.order[s.end[e]] = int32(i)
		s.end[e]++
	}
}

// resize returns buf with length n and every element zero, reusing its
// backing array when it is large enough.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// tryStart launches queued attempts on execID while it has free cores.
func (s *stageSim) tryStart(execID int) {
	cores := s.pool.Executors[execID].Cores
	for s.busy[execID] < cores && s.head[execID] < s.end[execID] {
		i := s.order[s.head[execID]]
		s.head[execID]++
		if s.atts[i].phase == done {
			continue // killed while still queued
		}
		s.busy[execID]++
		s.runAttempt(i)
	}
}

// runAttempt starts attempt i's compute phase.
func (s *stageSim) runAttempt(i int32) {
	a, p := &s.atts[i], &s.tasks[i].Profile
	cores := s.pool.Executors[s.tasks[i].ExecID].Cores
	randB, seqB := p.randSeqBytes()
	randShare := 0.0
	if randB > 0 {
		randShare = randB / (randB + seqB)
	}
	alloc := p.CPUNS * s.cost.AllocContentionFactor * float64(cores-1) / 39 * randShare
	cpu := sim.Duration((p.CPUNS + s.cost.TaskDispatchNS + alloc) * a.factor)
	a.tiers, a.ntiers = p.touchedTiers()
	a.phase = onCPU
	a.ev = s.k.Schedule(s.k.Now()+cpu, s, i)
}

// Fire implements sim.Handler: the attempt at index tag has an event
// due, and its phase says which.
func (s *stageSim) Fire(now sim.Time, tag int32) {
	a := &s.atts[tag]
	switch a.phase {
	case onCPU:
		s.stall(tag)
	case stalled:
		s.drain(tag)
	case draining:
		a.pending--
		if a.pending == 0 {
			s.complete(tag, now)
		}
	case done:
		// Killed while a zero-delay drain completion was in flight.
	}
}

// stall ends attempt i's compute phase: its memory stall is priced under
// the current per-tier contention.
func (s *stageSim) stall(i int32) {
	a, p := &s.atts[i], &s.tasks[i].Profile
	stall := 0.0
	for _, id := range a.tiers[:a.ntiers] {
		s.memActive[id]++
		if s.memActive[id] > s.res.MaxSharers {
			s.res.MaxSharers = s.memActive[id]
		}
		stall += p.stallNS(s.sys.Tier(id), s.memActive[id])
	}
	stall *= a.factor
	s.res.StallNS += stall
	a.phase = stalled
	a.ev = s.k.Schedule(s.k.Now()+sim.Duration(stall), s, i)
}

// drain ends attempt i's stall: its media traffic drains through each
// touched tier's channel, and the attempt finishes when all drains
// complete.
func (s *stageSim) drain(i int32) {
	a, p := &s.atts[i], &s.tasks[i].Profile
	a.phase = draining
	a.pending = a.ntiers
	if a.ntiers == 0 {
		// No memory footprint at all: finish via a zero-delay event to
		// preserve ordering.
		a.pending = 1
		s.k.Schedule(s.k.Now(), s, i)
		return
	}
	for j, id := range a.tiers[:a.ntiers] {
		tier := s.sys.Tier(id)
		a.flows[j] = tier.Server().SubmitTo(p.channelUnits(tier), s, i)
	}
}

// release gives back the slots attempt i held in phase was: its
// memory-activity slots once it had stalled, its core once it had left
// the queue.
func (s *stageSim) release(i int32, was phase) {
	a := &s.atts[i]
	if was == stalled || was == draining {
		for _, id := range a.tiers[:a.ntiers] {
			s.memActive[id]--
		}
	}
	if was != queued {
		execID := s.tasks[i].ExecID
		s.busy[execID]--
		s.tryStart(execID)
	}
}

// kill cancels racing attempt i, which lost: its pending event and
// unserved bandwidth flows are withdrawn and its slots freed.
func (s *stageSim) kill(i int32) {
	a := &s.atts[i]
	was := a.phase
	if was == done {
		return
	}
	a.phase = done
	s.res.Killed++
	switch was {
	case onCPU, stalled:
		s.k.Cancel(a.ev)
	case draining:
		for j, id := range a.tiers[:a.ntiers] {
			s.sys.Tier(id).Server().Withdraw(a.flows[j])
		}
	}
	s.release(i, was)
}

// complete records finished attempt i; the first attempt of a logical
// task to finish wins, updates the stage end and kills its rivals in
// index order.
func (s *stageSim) complete(i int32, end sim.Time) {
	a := &s.atts[i]
	a.phase = done
	s.release(i, draining)
	if s.taskDone[a.logical] {
		return // a rival finished first at this same instant
	}
	s.taskDone[a.logical] = true
	if end > s.lastEnd {
		s.lastEnd = end
	}
	for r := s.firstOf[a.logical]; r >= 0; r = s.atts[r].nextRival {
		if r != i {
			s.kill(r)
		}
	}
}
