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

// attempt is the simulation state of one SimTask while it runs.
type attempt struct {
	task    SimTask
	logical int // index of the logical task this attempt computes
	factor  float64

	running  bool // dequeued and started
	done     bool // finished or killed
	released bool // core/memory slots given back

	ev      *sim.Event // pending compute or stall event
	memHeld bool       // memActive slots currently held
	tiers   []memsim.TierID
	flows   []*sim.Flow
	servers []*sim.SharedServer
	pending int // outstanding bandwidth drains
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
// order, deterministic for any phase-1 worker count.
func SimulateStage(k *sim.Kernel, pool *Pool, tasks []SimTask, cost CostModel) StageResult {
	res := StageResult{}
	if len(tasks) == 0 {
		res.Makespan = sim.Time(cost.StageOverheadNS)
		return res
	}
	sys := pool.System()
	start := k.Now()

	atts := make([]*attempt, len(tasks))
	attemptsOf := make(map[int][]*attempt, len(tasks))
	for i, t := range tasks {
		logical := i
		if t.SpeculativeOf > 0 {
			logical = t.SpeculativeOf - 1
		}
		factor := t.SlowFactor
		if factor <= 0 {
			factor = 1
		}
		atts[i] = &attempt{task: t, logical: logical, factor: factor}
		attemptsOf[logical] = append(attemptsOf[logical], atts[i])
		res.CPUNS += t.Profile.CPUNS
	}

	// Per-executor FIFO queues in submission (partition) order.
	queues := make([][]*attempt, pool.Size())
	for _, a := range atts {
		queues[a.task.ExecID] = append(queues[a.task.ExecID], a)
	}

	var memActive [memsim.NumTiers]int
	taskDone := make([]bool, len(tasks)) // indexed by logical task
	var lastEnd sim.Time
	busy := make([]int, pool.Size())

	var tryStart func(execID int)

	// release gives back the attempt's core and memory-activity slots;
	// it is idempotent so a kill racing a natural finish is safe.
	release := func(a *attempt) {
		if a.released {
			return
		}
		a.released = true
		if a.memHeld {
			for _, id := range a.tiers {
				memActive[id]--
			}
			a.memHeld = false
		}
		if a.running {
			busy[a.task.ExecID]--
			tryStart(a.task.ExecID)
		}
	}

	// kill cancels a racing attempt that lost: pending events and
	// unserved bandwidth flows are withdrawn and its slots freed.
	kill := func(a *attempt) {
		if a.done {
			return
		}
		a.done = true
		res.Killed++
		if a.ev != nil {
			a.ev.Cancel()
			a.ev = nil
		}
		for i, f := range a.flows {
			a.servers[i].CancelFlow(f)
		}
		release(a)
	}

	// complete records a finished attempt; the first attempt of a
	// logical task to finish wins, updates the stage end and kills its
	// rivals.
	complete := func(a *attempt, end sim.Time) {
		a.done = true
		release(a)
		if taskDone[a.logical] {
			return // a rival finished first at this same instant
		}
		taskDone[a.logical] = true
		if end > lastEnd {
			lastEnd = end
		}
		for _, rival := range attemptsOf[a.logical] {
			if rival != a {
				kill(rival)
			}
		}
	}

	runAttempt := func(a *attempt) {
		execID := a.task.ExecID
		cores := pool.Executors[execID].Cores
		randB, seqB := a.task.Profile.randSeqBytes()
		randShare := 0.0
		if randB > 0 {
			randShare = randB / (randB + seqB)
		}
		alloc := a.task.Profile.CPUNS * cost.AllocContentionFactor * float64(cores-1) / 39 * randShare
		cpu := sim.Duration((a.task.Profile.CPUNS + cost.TaskDispatchNS + alloc) * a.factor)
		a.tiers = a.task.Profile.touchedTiers()
		a.ev = k.After(cpu, func(sim.Time) {
			a.ev = nil
			// Memory stall under current per-tier contention.
			stall := 0.0
			for _, id := range a.tiers {
				memActive[id]++
				if memActive[id] > res.MaxSharers {
					res.MaxSharers = memActive[id]
				}
				stall += a.task.Profile.stallNS(sys.Tier(id), memActive[id])
			}
			stall *= a.factor
			a.memHeld = len(a.tiers) > 0
			res.StallNS += stall
			a.ev = k.After(sim.Duration(stall), func(sim.Time) {
				a.ev = nil
				// Drain media traffic through each touched channel; the
				// attempt finishes when all drains complete.
				a.pending = len(a.tiers)
				finish := func(end sim.Time) {
					if a.done {
						return // killed while a drain completion was in flight
					}
					a.pending--
					if a.pending > 0 {
						return
					}
					complete(a, end)
				}
				if a.pending == 0 {
					// No memory footprint at all: finish via a
					// zero-delay event to preserve ordering.
					a.pending = 1
					k.After(0, finish)
					return
				}
				for _, id := range a.tiers {
					tier := sys.Tier(id)
					srv := tier.Server()
					a.flows = append(a.flows, srv.Submit(a.task.Profile.channelUnits(tier), finish))
					a.servers = append(a.servers, srv)
				}
			})
		})
	}
	tryStart = func(execID int) {
		cores := pool.Executors[execID].Cores
		for busy[execID] < cores && len(queues[execID]) > 0 {
			a := queues[execID][0]
			queues[execID] = queues[execID][1:]
			if a.done {
				continue // killed while still queued
			}
			busy[execID]++
			a.running = true
			runAttempt(a)
		}
	}

	for execID := range queues {
		tryStart(execID)
	}
	k.Run()
	res.Makespan = (lastEnd - start) + sim.Time(cost.StageOverheadNS)
	return res
}
