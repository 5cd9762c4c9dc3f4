package executor

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/shuffle"
	"repro/internal/sim"
)

func newTestRig(tier memsim.TierID) (*sim.Kernel, *memsim.System, *Pool) {
	k := sim.NewKernel()
	sys := memsim.NewSystem(k)
	pool := NewPool(1, 4, numa.BindingForTier(tier), sys, 0)
	return k, sys, pool
}

func newCtx(pool *Pool, part int) *TaskContext {
	ex := pool.AssignPartition(part)
	return NewTaskContext(ex.ID, part, pool.Tier(), DefaultCostModel(), ex.Blocks, shuffle.NewStore(), 42)
}

func TestTaskContextChargesCountersAndProfile(t *testing.T) {
	_, sys, pool := newTestRig(memsim.Tier2)
	ctx := newCtx(pool, 0)

	ctx.CPU(1000)
	ctx.CPUPerRecord(10, 50)
	ctx.MemSeq(memsim.Read, 25_600) // 100 XPLines
	ctx.MemRand(memsim.Write, 10, 400)

	p := ctx.Profile()
	if p.CPUNS != 1500 {
		t.Errorf("CPUNS = %v, want 1500", p.CPUNS)
	}
	wantSeqStall := 100 * memsim.Sequential.LatencyExposure()
	if math.Abs(p.Tiers[memsim.Tier2].StallLines[memsim.Read]-wantSeqStall) > 1e-9 {
		t.Errorf("read stall lines = %v, want %v", p.Tiers[memsim.Tier2].StallLines[memsim.Read], wantSeqStall)
	}
	// 10 random items of 40B each on DCPM become 10*churn full XPLines
	// (object-graph traffic rides along), exposure 1.
	churn := int64(DefaultCostModel().ObjectChurn)
	if p.Tiers[memsim.Tier2].StallLines[memsim.Write] != float64(10*churn) {
		t.Errorf("write stall lines = %v, want %d", p.Tiers[memsim.Tier2].StallLines[memsim.Write], 10*churn)
	}
	ctx.Commit() // counters stage task-locally until commit
	c := sys.Tier(memsim.Tier2).Counters()
	if c.MediaReads != 100 || c.MediaWrites != 10*churn {
		t.Errorf("tier counters reads/writes = %d/%d, want 100/%d", c.MediaReads, c.MediaWrites, 10*churn)
	}
	tc := p.Tiers[memsim.Tier2]
	if tc.SeqBytes[memsim.Read] != 100*256 {
		t.Errorf("seq media bytes = %v, want 25600", tc.SeqBytes)
	}
	if tc.RandBytes[memsim.Write] != 10*churn*256 {
		t.Errorf("rand media bytes = %v, want %d", tc.RandBytes, 10*churn*256)
	}
}

func TestTaskContextIgnoresNonPositive(t *testing.T) {
	_, sys, pool := newTestRig(memsim.Tier0)
	ctx := newCtx(pool, 0)
	ctx.CPU(-5)
	ctx.CPUPerRecord(-1, 10)
	ctx.MemSeq(memsim.Read, 0)
	ctx.MemRand(memsim.Write, 0, 100)
	if p := ctx.Profile(); p != (Profile{}) {
		t.Errorf("non-positive charges leaked into profile: %+v", p)
	}
	ctx.Commit()
	if c := sys.Tier(memsim.Tier0).Counters(); c.MediaReads+c.MediaWrites != 0 {
		t.Error("non-positive charges leaked into counters")
	}
}

func TestReadShuffleChunkLocalVsRemote(t *testing.T) {
	_, sys, pool2 := func() (*sim.Kernel, *memsim.System, *Pool) {
		k := sim.NewKernel()
		sys := memsim.NewSystem(k)
		return k, sys, NewPool(2, 2, numa.BindingForTier(memsim.Tier0), sys, 0)
	}()
	cost := DefaultCostModel()

	local := NewTaskContext(0, 0, pool2.Tier(), cost, pool2.Executors[0].Blocks, shuffle.NewStore(), 1)
	remote := NewTaskContext(0, 0, pool2.Tier(), cost, pool2.Executors[0].Blocks, shuffle.NewStore(), 1)

	cs := &shuffle.ChunkSet{Shuffle: 1, MapPart: 0, ExecID: 0, Items: []int{10}, Bytes: []int64{4096}}
	local.ReadShuffleChunk(cs, 0)
	csRemote := &shuffle.ChunkSet{Shuffle: 1, MapPart: 1, ExecID: 1, Items: []int{10}, Bytes: []int64{4096}}
	remote.ReadShuffleChunk(csRemote, 0)

	if remote.Profile().CPUNS <= local.Profile().CPUNS {
		t.Error("remote chunk fetch must cost extra CPU (co-operation overhead)")
	}
	rT := remote.Profile().Tiers[memsim.Tier0]
	lT := local.Profile().Tiers[memsim.Tier0]
	if rT.StallLines[memsim.Read] <= lT.StallLines[memsim.Read] {
		t.Error("remote chunk fetch must incur extra latency-exposed accesses")
	}
	local.ReadShuffleChunk(nil, 0) // nil-safe
	empty := &shuffle.ChunkSet{Shuffle: 1, MapPart: 2, ExecID: 1, Items: []int{0}, Bytes: []int64{0}}
	before := remote.Profile().CPUNS
	remote.ReadShuffleChunk(empty, 0) // empty chunks charge nothing
	if remote.Profile().CPUNS != before {
		t.Error("empty chunk read charged CPU")
	}

	// The copy ledger stages with the task and publishes at commit: the
	// local read is a reference pass (copy saved), the remote a copy.
	if got := sys.Tier(memsim.Tier0).Copies(); got != (memsim.CopyCounters{}) {
		t.Fatalf("copy ledger published before commit: %+v", got)
	}
	local.Commit()
	remote.Commit()
	got := sys.Tier(memsim.Tier0).Copies()
	want := memsim.CopyCounters{LocalChunks: 1, LocalBytes: 4096, RemoteChunks: 1, RemoteBytes: 4096}
	if got != want {
		t.Fatalf("copy ledger = %+v, want %+v", got, want)
	}
}

func TestProfileAdd(t *testing.T) {
	a := Profile{CPUNS: 10}
	a.Tiers[memsim.Tier0].StallLines[memsim.Read] = 5
	a.Tiers[memsim.Tier0].SeqBytes[memsim.Write] = 100
	b := Profile{CPUNS: 3}
	b.Tiers[memsim.Tier0].StallLines[memsim.Read] = 2
	b.Tiers[memsim.Tier0].SeqBytes[memsim.Write] = 50
	b.Tiers[memsim.Tier2].RandBytes[memsim.Read] = 30
	a.Add(b)
	if a.CPUNS != 13 || a.Tiers[memsim.Tier0].StallLines[memsim.Read] != 7 || a.Tiers[memsim.Tier0].SeqBytes[memsim.Write] != 150 {
		t.Errorf("Add result wrong: %+v", a)
	}
	if got := a.Tiers[memsim.Tier2].RandBytes[memsim.Read]; got != 30 {
		t.Errorf("Add dropped a tier the receiver had not touched: %d rand bytes, want 30", got)
	}
}

func TestPoolBasics(t *testing.T) {
	_, _, pool := newTestRig(memsim.Tier1)
	if pool.Size() != 1 || pool.Executors[0].Cores != 4 {
		t.Fatalf("pool = %d execs x %d cores", pool.Size(), pool.Executors[0].Cores)
	}
	if pool.AssignPartition(7) != pool.Executors[0] {
		t.Error("single-executor pool must own every partition")
	}
	defer func() {
		if recover() == nil {
			t.Error("zero-core executor did not panic")
		}
	}()
	NewExecutor(0, 0, numa.BindingForTier(memsim.Tier0), 0)
}

func TestAssignPartitionRoundRobin(t *testing.T) {
	k := sim.NewKernel()
	sys := memsim.NewSystem(k)
	pool := NewPool(3, 2, numa.BindingForTier(memsim.Tier0), sys, 0)
	for p := 0; p < 9; p++ {
		if got := pool.AssignPartition(p).ID; got != p%3 {
			t.Errorf("partition %d -> executor %d, want %d", p, got, p%3)
		}
	}
}

func TestSimulateStageSingleTask(t *testing.T) {
	k, _, pool := newTestRig(memsim.Tier0)
	cost := DefaultCostModel()
	var prof Profile
	prof.CPUNS = 1e6
	res := SimulateStage(k, pool, []SimTask{{Profile: prof, ExecID: 0}}, cost)
	want := 1e6 + cost.TaskDispatchNS + cost.StageOverheadNS
	if math.Abs(float64(res.Makespan)-want) > 1000 {
		t.Errorf("makespan = %v, want ~%v ns", res.Makespan, want)
	}
}

func TestSimulateStageCoreLimit(t *testing.T) {
	// 8 identical pure-CPU tasks on 4 cores take two waves.
	k, _, pool := newTestRig(memsim.Tier0)
	cost := CostModel{TaskDispatchNS: 0, StageOverheadNS: 0}
	var tasks []SimTask
	for i := 0; i < 8; i++ {
		tasks = append(tasks, SimTask{Profile: Profile{CPUNS: 1e6}, ExecID: 0})
	}
	res := SimulateStage(k, pool, tasks, cost)
	if math.Abs(float64(res.Makespan)-2e6) > 1000 {
		t.Errorf("makespan = %v, want ~2ms (two waves of 4)", res.Makespan)
	}
}

func TestSimulateStageEmpty(t *testing.T) {
	k, _, pool := newTestRig(memsim.Tier0)
	res := SimulateStage(k, pool, nil, DefaultCostModel())
	if res.Makespan != sim.Time(DefaultCostModel().StageOverheadNS) {
		t.Errorf("empty stage makespan = %v", res.Makespan)
	}
}

func TestSimulateStageTierSensitivity(t *testing.T) {
	// The same random-read-heavy profile must take longer on DCPM tiers.
	mk := func(tier memsim.TierID) sim.Time {
		k, _, pool := newTestRig(tier)
		var p Profile
		p.Tiers[tier].StallLines[memsim.Read] = 100_000 // latency-bound task
		p.Tiers[tier].RandBytes[memsim.Read] = 100_000 * 64
		res := SimulateStage(k, pool, []SimTask{{Profile: p, ExecID: 0}}, CostModel{})
		return res.Makespan
	}
	t0, t2, t3 := mk(memsim.Tier0), mk(memsim.Tier2), mk(memsim.Tier3)
	if !(t0 < t2 && t2 < t3) {
		t.Errorf("latency-bound makespans not ordered: T0=%v T2=%v T3=%v", t0, t2, t3)
	}
	ratio := float64(t2) / float64(t0)
	wantRatio := 172.1 / 77.8
	if math.Abs(ratio-wantRatio) > 0.2 {
		t.Errorf("T2/T0 = %.2f, want ~%.2f (latency ratio)", ratio, wantRatio)
	}
}

func TestSimulateStageContentionInflatesStalls(t *testing.T) {
	// Same aggregate work split across more concurrent tasks must see
	// higher per-access latency (loaded latency) on the shared tier.
	run := func(parallel int) StageResult {
		k := sim.NewKernel()
		sys := memsim.NewSystem(k)
		pool := NewPool(1, parallel, numa.BindingForTier(memsim.Tier2), sys, 0)
		var tasks []SimTask
		for i := 0; i < parallel; i++ {
			var p Profile
			p.Tiers[memsim.Tier2].StallLines[memsim.Read] = 10_000
			tasks = append(tasks, SimTask{Profile: p, ExecID: 0})
		}
		return SimulateStage(k, pool, tasks, CostModel{})
	}
	seq := run(1)
	par := run(16)
	if par.MaxSharers <= seq.MaxSharers {
		t.Errorf("max sharers %d vs %d: contention not observed", par.MaxSharers, seq.MaxSharers)
	}
	if par.StallNS <= 16*seq.StallNS*0.99 {
		t.Errorf("total stall %v should exceed %v (loaded latency)", par.StallNS, 16*seq.StallNS)
	}
}

func TestSimulateStageBandwidthSharing(t *testing.T) {
	// Two bandwidth-heavy tasks on one tier take about twice as long as
	// one, because the channel is processor-shared.
	run := func(n int) sim.Time {
		k := sim.NewKernel()
		sys := memsim.NewSystem(k)
		pool := NewPool(1, n, numa.BindingForTier(memsim.Tier3), sys, 0)
		var tasks []SimTask
		for i := 0; i < n; i++ {
			var p Profile
			p.Tiers[memsim.Tier3].SeqBytes[memsim.Read] = 47_000_000 // 0.1s at 0.47 GB/s
			tasks = append(tasks, SimTask{Profile: p, ExecID: 0})
		}
		return SimulateStage(k, pool, tasks, CostModel{}).Makespan
	}
	one, two := run(1), run(2)
	ratio := float64(two) / float64(one)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("2-task/1-task makespan ratio = %.2f, want ~2 (shared channel)", ratio)
	}
}

func TestSimulateStageMBACapSlowsBandwidthBoundWork(t *testing.T) {
	run := func(cap float64) sim.Time {
		k := sim.NewKernel()
		sys := memsim.NewSystem(k)
		sys.SetBandwidthCap(cap)
		pool := NewPool(1, 1, numa.BindingForTier(memsim.Tier0), sys, 0)
		var p Profile
		p.Tiers[memsim.Tier0].SeqBytes[memsim.Read] = 393_000_000 // 10ms at 39.3GB/s
		return SimulateStage(k, pool, []SimTask{{Profile: p, ExecID: 0}}, CostModel{}).Makespan
	}
	full, capped := run(1.0), run(0.1)
	if ratio := float64(capped) / float64(full); math.Abs(ratio-10) > 0.5 {
		t.Errorf("10%% cap ratio = %.2f, want ~10 for pure-bandwidth work", ratio)
	}
}

func TestSimulateStageMixedTierFlows(t *testing.T) {
	// A task touching two tiers drains both channels in parallel: its end
	// time is governed by the slower drain, not the sum.
	k := sim.NewKernel()
	sys := memsim.NewSystem(k)
	pool := NewPool(1, 1, numa.BindingForTier(memsim.Tier0), sys, 0)

	var p Profile
	p.Tiers[memsim.Tier0].SeqBytes[memsim.Read] = 393_000_000 // 10ms at 39.3GB/s
	p.Tiers[memsim.Tier2].SeqBytes[memsim.Read] = 214_000_000 // 20ms at 10.7GB/s
	res := SimulateStage(k, pool, []SimTask{{Profile: p, ExecID: 0}}, CostModel{})
	ms := res.Makespan.Seconds()
	if ms < 0.019 || ms > 0.025 {
		t.Fatalf("mixed-tier makespan %.4fs, want ~0.020s (parallel drains, max not sum)", ms)
	}
}

func TestSimulateStageZeroFootprintTask(t *testing.T) {
	// A pure-CPU task (no memory footprint on any tier) must still finish
	// and free its core.
	k, _, pool := newTestRig(memsim.Tier0)
	tasks := []SimTask{
		{Profile: Profile{CPUNS: 1e6}, ExecID: 0},
		{Profile: Profile{CPUNS: 1e6}, ExecID: 0},
	}
	res := SimulateStage(k, pool, tasks, CostModel{})
	if res.Makespan <= 0 {
		t.Fatal("zero-footprint tasks did not run")
	}
}

func TestPlacementValidate(t *testing.T) {
	good := UniformPlacement(memsim.Tier2)
	if err := good.Validate(); err != nil {
		t.Fatalf("uniform placement invalid: %v", err)
	}
	if good.Heap != memsim.Tier2 || good.Shuffle != memsim.Tier2 || good.Cache != memsim.Tier2 {
		t.Fatal("uniform placement not uniform")
	}
	bad := Placement{Heap: memsim.TierID(9), Shuffle: memsim.Tier0, Cache: memsim.Tier0}
	if bad.Validate() == nil {
		t.Fatal("invalid heap tier accepted")
	}
	if bad.Validate().Error() == "" {
		t.Fatal("empty error message")
	}
}

func TestPlacedPoolTierAccessors(t *testing.T) {
	k := sim.NewKernel()
	sys := memsim.NewSystem(k)
	p := Placement{Heap: memsim.Tier2, Shuffle: memsim.Tier0, Cache: memsim.Tier1}
	pool := NewPlacedPool(2, 4, numa.BindingForTier(memsim.Tier2), sys, p, 0)
	if pool.Tier().Spec.ID != memsim.Tier2 {
		t.Fatal("heap tier wrong")
	}
	if pool.ShuffleTier().Spec.ID != memsim.Tier0 {
		t.Fatal("shuffle tier wrong")
	}
	if pool.CacheTier().Spec.ID != memsim.Tier1 {
		t.Fatal("cache tier wrong")
	}
	if pool.placement != p {
		t.Fatal("placement not retained")
	}
}

func TestPlacedContextRoutesCategories(t *testing.T) {
	k := sim.NewKernel()
	sys := memsim.NewSystem(k)
	ctx := NewPlacedTaskContext(0, 0,
		sys.Tier(memsim.Tier0), sys.Tier(memsim.Tier2), sys.Tier(memsim.Tier1),
		DefaultCostModel(), nil, nil, 1)

	ctx.MemSeq(memsim.Read, 64_000)
	ctx.ShuffleSeq(memsim.Write, 64_000)
	ctx.TierSeq(ctx.CacheTier, memsim.Write, 64_000)
	ctx.ShuffleRand(memsim.Read, 10, 640)
	ctx.Commit() // nil Blocks/Shuffle: commit publishes only tier deltas

	if sys.Tier(memsim.Tier0).Counters().ReadBytes != 64_000 {
		t.Error("heap read not routed to Tier 0")
	}
	if sys.Tier(memsim.Tier2).Counters().WriteBytes != 64_000 {
		t.Error("shuffle write not routed to Tier 2")
	}
	if sys.Tier(memsim.Tier1).Counters().WriteBytes != 64_000 {
		t.Error("cache write not routed to Tier 1")
	}
	if sys.Tier(memsim.Tier2).Counters().ReadOps == 0 {
		t.Error("shuffle random read not routed to Tier 2")
	}
	p := ctx.Profile()
	if p.Tiers[memsim.Tier0].SeqBytes[memsim.Read] == 0 ||
		p.Tiers[memsim.Tier2].SeqBytes[memsim.Write] == 0 ||
		p.Tiers[memsim.Tier1].SeqBytes[memsim.Write] == 0 {
		t.Errorf("profile not split per tier: %+v", p)
	}
	if ids, n := p.touchedTiers(); n != 3 {
		t.Errorf("touched tiers = %v, want 3", ids[:n])
	}
}

// Property: a stage's makespan is bounded below by both the longest single
// task (critical path) and total CPU work divided by core count, and
// bounded above by serial execution of everything.
func TestSimulateStageMakespanBoundsProperty(t *testing.T) {
	prop := func(raw []uint32, coresRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		cores := int(coresRaw%8) + 1
		k := sim.NewKernel()
		sys := memsim.NewSystem(k)
		pool := NewPool(1, cores, numa.BindingForTier(memsim.Tier0), sys, 0)
		var tasks []SimTask
		var totalCPU, maxCPU float64
		for _, r := range raw {
			cpu := float64(r%1_000_000) + 1
			totalCPU += cpu
			if cpu > maxCPU {
				maxCPU = cpu
			}
			tasks = append(tasks, SimTask{Profile: Profile{CPUNS: cpu}, ExecID: 0})
		}
		ms := float64(SimulateStage(k, pool, tasks, CostModel{}).Makespan)
		lower := maxCPU
		if perCore := totalCPU / float64(cores); perCore > lower {
			lower = perCore
		}
		// Small tolerance for event rounding.
		return ms >= lower-float64(len(raw)) && ms <= totalCPU+float64(len(raw))+1000
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the DES conserves CPU accounting — reported CPUNS equals the
// sum of submitted task CPU regardless of layout.
func TestSimulateStageCPUConservationProperty(t *testing.T) {
	prop := func(raw []uint16, execsRaw uint8) bool {
		execs := int(execsRaw%4) + 1
		k := sim.NewKernel()
		sys := memsim.NewSystem(k)
		pool := NewPool(execs, 2, numa.BindingForTier(memsim.Tier1), sys, 0)
		var tasks []SimTask
		total := 0.0
		for i, r := range raw {
			cpu := float64(r) + 1
			total += cpu
			tasks = append(tasks, SimTask{Profile: Profile{CPUNS: cpu}, ExecID: i % execs})
		}
		res := SimulateStage(k, pool, tasks, CostModel{})
		return res.CPUNS == total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestTaskRandIsLazyButIdentical pins the lazily seeded task PRNG: the
// stream every draw method sees is rand.New(rand.NewSource(s))'s, Seed is
// honoured, and a context that never draws never allocates the source's
// state.
func TestTaskRandIsLazyButIdentical(t *testing.T) {
	_, _, pool := newTestRig(memsim.Tier2)
	const seed, part = 42, 3
	draw := func(r *rand.Rand) []any {
		var out []any
		for i := 0; i < 50; i++ {
			out = append(out, r.Float64(), r.Intn(1000), r.Int63(), r.Uint64())
		}
		return out
	}
	ctx := newCtx(pool, part)
	want := rand.New(rand.NewSource(seed*1_000_003 + part))
	if got, want := draw(ctx.Rand), draw(want); !reflect.DeepEqual(got, want) {
		t.Fatalf("lazy task PRNG diverges from the eager one:\n got %v\nwant %v", got[:8], want[:8])
	}
	ctx.Rand.Seed(7)
	want.Seed(7)
	if got, want := draw(ctx.Rand), draw(want); !reflect.DeepEqual(got, want) {
		t.Fatal("lazy task PRNG diverges from the eager one after Seed")
	}

	ex := pool.AssignPartition(part)
	store := shuffle.NewStore()
	cost := DefaultCostModel()
	// The context and its *rand.Rand: the 607-word source would be a third.
	allocs := testing.AllocsPerRun(100, func() {
		c := NewTaskContext(ex.ID, part, pool.Tier(), cost, ex.Blocks, store, seed)
		c.CPU(1)
	})
	if allocs > 2 {
		t.Fatalf("a context that never draws costs %.0f allocations, want <= 2", allocs)
	}
}
