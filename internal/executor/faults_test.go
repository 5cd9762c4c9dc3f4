package executor

import (
	"testing"

	"repro/internal/blockmgr"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/shuffle"
	"repro/internal/sim"
)

func newMultiRig(n, cores int) (*sim.Kernel, *Pool) {
	k := sim.NewKernel()
	sys := memsim.NewSystem(k)
	return k, NewPool(n, cores, numa.BindingForTier(memsim.Tier0), sys, 0)
}

func TestPoolMarkDeadAndReplace(t *testing.T) {
	_, pool := newMultiRig(3, 2)
	if pool.AliveCount() != 3 || !pool.Alive(1) {
		t.Fatal("fresh pool not fully alive")
	}
	pool.MarkDead(1)
	pool.MarkDead(1) // idempotent
	if pool.AliveCount() != 2 || pool.Alive(1) {
		t.Fatalf("after MarkDead: alive=%d", pool.AliveCount())
	}
	old := pool.Executors[1]
	old.Blocks.Put(blockmgr.BlockID{RDD: 1, Partition: 0}, "x", 10, 1)

	fresh := pool.Replace(1)
	if pool.AliveCount() != 3 || !pool.Alive(1) {
		t.Fatal("Replace did not revive the slot")
	}
	if fresh.ID != 1 || fresh.Cores != old.Cores {
		t.Fatalf("replacement = id %d cores %d, want id 1 cores %d", fresh.ID, fresh.Cores, old.Cores)
	}
	if fresh == old || len(fresh.Blocks.AppendBlocks(nil)) != 0 {
		t.Fatal("replacement executor is not fresh")
	}
}

func TestAssignPartitionSkipsDeadSlots(t *testing.T) {
	_, pool := newMultiRig(3, 2)
	if pool.AssignPartition(4).ID != 1 {
		t.Fatalf("healthy pool: part 4 -> exec %d, want 1", pool.AssignPartition(4).ID)
	}
	pool.MarkDead(1)
	// Survivors are 0 and 2; partitions round-robin over them.
	wants := []int{0, 2, 0, 2}
	for part, want := range wants {
		if got := pool.AssignPartition(part).ID; got != want {
			t.Fatalf("dead slot 1: part %d -> exec %d, want %d", part, got, want)
		}
	}
	pool.MarkDead(0)
	pool.MarkDead(2)
	defer func() {
		if recover() == nil {
			t.Fatal("AssignPartition with no live executors did not panic")
		}
	}()
	pool.AssignPartition(0)
}

func TestStartupTaskChargesStartupCosts(t *testing.T) {
	_, pool := newMultiRig(1, 2)
	cost := DefaultCostModel()
	task := StartupTask(pool, pool.Executors[0], cost, shuffle.NewStore(), 1)
	if task.ExecID != 0 {
		t.Fatalf("startup task exec = %d", task.ExecID)
	}
	if task.Profile.CPUNS != cost.ExecStartupNS {
		t.Fatalf("startup CPU = %v, want %v", task.Profile.CPUNS, cost.ExecStartupNS)
	}
	if task.Profile.Tiers[memsim.Tier0].SeqBytes[memsim.Write] <= 0 {
		t.Fatal("startup heap-initialization write not charged")
	}
}

// mkTask builds a pure-CPU simulation task.
func mkTask(execID int, cpuNS float64) SimTask {
	return SimTask{Profile: Profile{CPUNS: cpuNS}, ExecID: execID}
}

func TestSlowFactorInflatesMakespan(t *testing.T) {
	run := func(factor float64) sim.Time {
		k, pool := newMultiRig(1, 2)
		task := mkTask(0, 1e6)
		task.SlowFactor = factor
		res := SimulateStage(k, pool, []SimTask{task}, DefaultCostModel())
		return res.Makespan
	}
	base, slowed := run(0), run(3)
	if slowed <= base {
		t.Fatalf("slow factor 3 did not inflate makespan: %v vs %v", slowed, base)
	}
	// Factor 1 must be float-exact with the unset (zero) factor so
	// fault-free timing never shifts.
	if run(1) != base {
		t.Fatal("slow factor 1 changed timing")
	}
}

// A speculative clone on a fast executor must win the race against its
// straggling original: the logical task completes at the clone's finish,
// the original is killed, and the stage makespan shrinks accordingly.
func TestSpeculativeCloneWinsRace(t *testing.T) {
	cost := DefaultCostModel()
	makespan := func(tasks []SimTask) (sim.Time, StageResult) {
		k, pool := newMultiRig(2, 2)
		res := SimulateStage(k, pool, tasks, cost)
		return res.Makespan, res
	}

	slow := mkTask(0, 1e6)
	slow.SlowFactor = 10
	straggled, _ := makespan([]SimTask{slow})

	clone := mkTask(1, 1e6)
	clone.SpeculativeOf = 1
	raced, res := makespan([]SimTask{slow, clone})
	if raced >= straggled {
		t.Fatalf("speculation did not shrink makespan: %v vs %v", raced, straggled)
	}
	if res.Killed != 1 {
		t.Fatalf("killed attempts = %d, want 1 (the straggling original)", res.Killed)
	}

	// The fast attempt alone bounds the raced makespan from below: racing
	// cannot finish before the winner would alone.
	fastOnly, _ := makespan([]SimTask{mkTask(1, 1e6)})
	if raced < fastOnly {
		t.Fatalf("raced makespan %v below the winner's solo makespan %v", raced, fastOnly)
	}
}

// Killing the losing attempt must free its core so queued tasks behind it
// start immediately, and must not extend the virtual clock.
func TestKilledAttemptReleasesCore(t *testing.T) {
	cost := DefaultCostModel()
	// One core on the slow executor: the straggling original (killed
	// mid-flight) is followed by a queued task that needs its core.
	k, pool := newMultiRig(2, 1)
	slow := mkTask(0, 1e6)
	slow.SlowFactor = 50
	clone := mkTask(1, 1e6)
	clone.SpeculativeOf = 1
	queued := mkTask(0, 1e6)
	res := SimulateStage(k, pool, []SimTask{slow, clone, queued}, cost)
	if res.Killed != 1 {
		t.Fatalf("killed = %d, want 1", res.Killed)
	}
	// The queued task starts when the original dies (at the clone's
	// finish), so the whole stage ends far sooner than the straggler's
	// solo runtime (50x ~1ms plus queueing).
	k2, pool2 := newMultiRig(2, 1)
	soloSlow := SimulateStage(k2, pool2, []SimTask{slow}, cost)
	if res.Makespan >= soloSlow.Makespan {
		t.Fatalf("kill did not cut the stage short: raced+queued %v vs straggler alone %v",
			res.Makespan, soloSlow.Makespan)
	}
}

func TestSpeculationDeterministic(t *testing.T) {
	cost := DefaultCostModel()
	run := func() (sim.Time, StageResult) {
		k, pool := newMultiRig(2, 2)
		slow := SimTask{Profile: Profile{CPUNS: 2e6}, ExecID: 0, SlowFactor: 4}
		clone := SimTask{Profile: Profile{CPUNS: 2e6}, ExecID: 1, SpeculativeOf: 1}
		other := SimTask{Profile: Profile{CPUNS: 1e6}, ExecID: 1}
		res := SimulateStage(k, pool, []SimTask{slow, other, clone}, cost)
		return k.Now(), res
	}
	t1, r1 := run()
	t2, r2 := run()
	if t1 != t2 || r1 != r2 {
		t.Fatalf("speculative simulation not deterministic: %v/%+v vs %v/%+v", t1, r1, t2, r2)
	}
}
