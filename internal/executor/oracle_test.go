package executor

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/sim"
)

// fireFunc adapts a closure to sim.Handler for the reference replay.
type fireFunc func(now sim.Time)

func (f fireFunc) Fire(now sim.Time, _ int32) { f(now) }

// refAttempt is the reference replay's heap-allocated attempt.
type refAttempt struct {
	task    SimTask
	logical int
	factor  float64

	running  bool
	done     bool
	released bool

	ev      sim.Ticket
	memHeld bool
	tiers   []memsim.TierID
	flows   []sim.FlowTicket
	servers []*sim.SharedServer
	pending int
}

// refSimulateStage is the closure-and-pointer stage replay the slab
// simulator replaced — an attempt pointer per task, a map of rivals,
// three closures per attempt and per-attempt flow slices — kept as the
// oracle for TestSimulateStageMatchesReference. It schedules through the
// kernel's typed path with a closure handler per event, which is what
// the removed k.After and Submit calls did underneath.
func refSimulateStage(k *sim.Kernel, pool *Pool, tasks []SimTask, cost CostModel) StageResult {
	res := StageResult{}
	if len(tasks) == 0 {
		res.Makespan = sim.Time(cost.StageOverheadNS)
		return res
	}
	sys := pool.System()
	start := k.Now()

	atts := make([]*refAttempt, len(tasks))
	attemptsOf := make(map[int][]*refAttempt, len(tasks))
	for i, t := range tasks {
		logical := i
		if t.SpeculativeOf > 0 {
			logical = t.SpeculativeOf - 1
		}
		factor := t.SlowFactor
		if factor <= 0 {
			factor = 1
		}
		atts[i] = &refAttempt{task: t, logical: logical, factor: factor}
		attemptsOf[logical] = append(attemptsOf[logical], atts[i])
		res.CPUNS += t.Profile.CPUNS
	}
	queues := make([][]*refAttempt, pool.Size())
	for _, a := range atts {
		queues[a.task.ExecID] = append(queues[a.task.ExecID], a)
	}

	var memActive [memsim.NumTiers]int
	taskDone := make([]bool, len(tasks))
	var lastEnd sim.Time
	busy := make([]int, pool.Size())

	var tryStart func(execID int)
	release := func(a *refAttempt) {
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
	kill := func(a *refAttempt) {
		if a.done {
			return
		}
		a.done = true
		res.Killed++
		k.Cancel(a.ev)
		a.ev = sim.Ticket{}
		for i, f := range a.flows {
			a.servers[i].Withdraw(f)
		}
		release(a)
	}
	complete := func(a *refAttempt, end sim.Time) {
		a.done = true
		release(a)
		if taskDone[a.logical] {
			return
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
	runAttempt := func(a *refAttempt) {
		cores := pool.Executors[a.task.ExecID].Cores
		randB, seqB := a.task.Profile.randSeqBytes()
		randShare := 0.0
		if randB > 0 {
			randShare = randB / (randB + seqB)
		}
		alloc := a.task.Profile.CPUNS * cost.AllocContentionFactor * float64(cores-1) / 39 * randShare
		cpu := sim.Duration((a.task.Profile.CPUNS + cost.TaskDispatchNS + alloc) * a.factor)
		ids, n := a.task.Profile.touchedTiers()
		a.tiers = append([]memsim.TierID(nil), ids[:n]...)
		a.ev = k.Schedule(k.Now()+cpu, fireFunc(func(sim.Time) {
			a.ev = sim.Ticket{}
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
			a.ev = k.Schedule(k.Now()+sim.Duration(stall), fireFunc(func(sim.Time) {
				a.ev = sim.Ticket{}
				a.pending = len(a.tiers)
				finish := func(end sim.Time) {
					if a.done {
						return
					}
					a.pending--
					if a.pending > 0 {
						return
					}
					complete(a, end)
				}
				if a.pending == 0 {
					a.pending = 1
					k.Schedule(k.Now(), fireFunc(finish), 0)
					return
				}
				for _, id := range a.tiers {
					tier := sys.Tier(id)
					srv := tier.Server()
					a.flows = append(a.flows, srv.SubmitTo(a.task.Profile.channelUnits(tier), fireFunc(finish), 0))
					a.servers = append(a.servers, srv)
				}
			}), 0)
		}), 0)
	}
	tryStart = func(execID int) {
		cores := pool.Executors[execID].Cores
		for busy[execID] < cores && len(queues[execID]) > 0 {
			a := queues[execID][0]
			queues[execID] = queues[execID][1:]
			if a.done {
				continue
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

// randomStage draws a stage of up to 60 attempts over execs executors:
// zero-footprint tasks, stall-only tiers (zero-unit drains), mixed-tier
// footprints, straggler factors up to 50 and speculative clones racing
// their originals.
func randomStage(r *rand.Rand, execs int) []SimTask {
	n := 1 + r.Intn(45)
	tasks := make([]SimTask, 0, n+n/3)
	for i := 0; i < n; i++ {
		t := SimTask{ExecID: r.Intn(execs)}
		t.Profile.CPUNS = float64(r.Intn(2_000_000))
		if r.Intn(6) > 0 {
			for _, id := range memsim.AllTiers() {
				if r.Intn(3) > 0 {
					continue
				}
				tc := &t.Profile.Tiers[id]
				tc.StallLines = [2]float64{float64(r.Intn(5000)), float64(r.Intn(2000))}
				if r.Intn(4) > 0 {
					tc.SeqBytes = [2]int64{r.Int63n(4 << 20), r.Int63n(1 << 20)}
					tc.RandBytes = [2]int64{r.Int63n(1 << 18), r.Int63n(1 << 16)}
				}
			}
		}
		if r.Intn(4) == 0 {
			t.SlowFactor = 1 + 49*r.Float64()
		}
		tasks = append(tasks, t)
	}
	for c := r.Intn(n/3 + 1); c > 0; c-- {
		orig := r.Intn(n)
		clone := tasks[orig]
		clone.SlowFactor = 0
		clone.ExecID = r.Intn(execs)
		clone.SpeculativeOf = orig + 1
		tasks = append(tasks, clone)
	}
	return tasks
}

// Property: the slab stage simulator matches the closure-and-pointer
// reference — StageResult, kernel clock and every tier's counters — over
// three back-to-back stages on one pool (so the reused scratch is
// exercised warm), for 1-4 executors of 1-40 cores under MBA caps of
// 0.1-1.
func TestSimulateStageMatchesReference(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		execs, cores := 1+r.Intn(4), 1+r.Intn(40)
		bwCap := 1.0
		if r.Intn(2) == 0 {
			bwCap = 0.1 + 0.9*r.Float64()
		}
		rig := func() (*sim.Kernel, *memsim.System, *Pool) {
			k := sim.NewKernel()
			sys := memsim.NewSystem(k)
			sys.SetBandwidthCap(bwCap)
			return k, sys, NewPool(execs, cores, numa.BindingForTier(memsim.Tier2), sys, 0)
		}
		k, sys, pool := rig()
		rk, rsys, rpool := rig()
		cost := DefaultCostModel()
		for stage := 0; stage < 3; stage++ {
			tasks := randomStage(r, execs)
			got := SimulateStage(k, pool, tasks, cost)
			want := refSimulateStage(rk, rpool, tasks, cost)
			if got != want || k.Now() != rk.Now() {
				t.Logf("seed %d stage %d (%d tasks, %dx%d, cap %.2f): got %+v at %v, want %+v at %v",
					seed, stage, len(tasks), execs, cores, bwCap, got, k.Now(), want, rk.Now())
				return false
			}
		}
		for _, id := range memsim.AllTiers() {
			if a, b := fmt.Sprintf("%+v", sys.Tier(id).Counters()), fmt.Sprintf("%+v", rsys.Tier(id).Counters()); a != b {
				t.Logf("seed %d: tier %v counters %s, want %s", seed, id, a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// stage80 is an 80-attempt stage on a 4 x 10 pool: 64 tasks with memory
// footprints on two tiers, every eighth on a straggling executor with a
// speculative clone racing it.
func stage80() []SimTask {
	tasks := make([]SimTask, 0, 80)
	for i := 0; i < 64; i++ {
		var p Profile
		p.CPUNS = float64(1e5 + 997*i)
		p.Tiers[memsim.Tier2] = TierCost{StallLines: [2]float64{800, 200}, SeqBytes: [2]int64{1 << 20, 1 << 18}, RandBytes: [2]int64{1 << 14, 1 << 12}}
		p.Tiers[memsim.Tier0] = TierCost{StallLines: [2]float64{100, 0}, SeqBytes: [2]int64{1 << 16, 0}}
		tasks = append(tasks, SimTask{Profile: p, ExecID: i % 4})
	}
	for i := 0; i < 64 && len(tasks) < 80; i += 4 {
		tasks[i].SlowFactor = 4
		clone := tasks[i]
		clone.SlowFactor, clone.ExecID, clone.SpeculativeOf = 0, 1, i+1
		tasks = append(tasks, clone)
	}
	return tasks
}

// On a warm pool the stage replay allocates a fixed number of times per
// call however many attempts the stage has: nothing per attempt, per
// event or per flow.
func TestSimulateStageAllocsIndependentOfTasks(t *testing.T) {
	tasks := stage80()
	allocs := func(tasks []SimTask) float64 {
		k := sim.NewKernel()
		pool := NewPool(4, 10, numa.BindingForTier(memsim.Tier2), memsim.NewSystem(k), 0)
		cost := DefaultCostModel()
		SimulateStage(k, pool, tasks, cost) // warm the pool's scratch and the slabs
		return testing.AllocsPerRun(20, func() { SimulateStage(k, pool, tasks, cost) })
	}
	small, large := allocs(tasks[:20]), allocs(tasks)
	if small != large || large > 0 {
		t.Fatalf("allocs per stage: %v at 20 attempts, %v at %d; want the same fixed count (0)", small, large, len(tasks))
	}
}
