package tiering

import (
	"testing"

	"repro/internal/blockmgr"
	"repro/internal/executor"
	"repro/internal/heat"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/shuffle"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// newHarness builds a 2-executor pool bound to local DCPM (the placement
// the DRAM-constrained experiments use) with an attached engine.
func newHarness(t *testing.T, cfg Config) (*sim.Kernel, *executor.Pool, *Engine) {
	t.Helper()
	k := sim.NewKernel()
	sys := memsim.NewSystem(k)
	pool := executor.NewPool(2, 2, numa.BindingForTier(memsim.Tier2), sys, 0)
	eng, err := NewEngine(cfg, pool, shuffle.NewStore(), executor.DefaultCostModel(), 42)
	if err != nil {
		t.Fatal(err)
	}
	return k, pool, eng
}

// heatOf is a block's heat as the tracker's snapshot records it, 0 for a
// block it does not hold.
func heatOf(tr heat.Tracker, id blockmgr.BlockID) float64 {
	for _, s := range tr.AppendSnapshot(nil) {
		if s.ID == id {
			return s.Heat
		}
	}
	return 0
}

func put(m *blockmgr.Manager, part int, bytes int64) blockmgr.BlockID {
	id := blockmgr.BlockID{RDD: 1, Partition: part}
	m.Put(id, part, bytes, 1)
	return id
}

// A static engine must be completely inert: landing tier untouched,
// ticks free of virtual time, no plans recorded.
func TestStaticEngineIsInert(t *testing.T) {
	k, pool, eng := newHarness(t, DefaultConfig(Static))
	blocks := pool.Executors[0].Blocks
	if got := blocks.LandingTier(); got != memsim.Tier2 {
		t.Fatalf("static engine rebound landing tier to %v", got)
	}
	for i := 0; i < 4; i++ {
		put(blocks, i, 100)
	}
	blocks.Get(blockmgr.BlockID{RDD: 1, Partition: 0})
	for i := 0; i < 3; i++ {
		eng.Tick()
	}
	if k.Now() != 0 {
		t.Fatalf("static ticks advanced the clock to %v", k.Now())
	}
	if len(eng.Plans()) != 0 || eng.MigratedBlocks() != 0 {
		t.Fatalf("static engine migrated: %d blocks, %d plans",
			eng.MigratedBlocks(), len(eng.Plans()))
	}
	if got := blocks.TierUsed(memsim.Tier2); got != 400 {
		t.Fatalf("blocks moved off the landing tier: Tier2 holds %d", got)
	}
	// The tracker still observes accesses (hotness is policy-independent).
	if len(eng.execs[0].tracker.AppendSnapshot(nil)) == 0 {
		t.Fatal("static engine's tracker saw nothing")
	}
}

// A dynamic tick with nothing to move must also cost zero virtual time.
func TestQuietTickCostsNothing(t *testing.T) {
	cfg := DefaultConfig(Watermark)
	cfg.FastBudgetBytes = 1000
	k, pool, eng := newHarness(t, cfg)
	put(pool.Executors[0].Blocks, 0, 100) // lands on fast, inside the band? below low -> quiet only if nothing promotable
	eng.Tick()
	if k.Now() != 0 {
		t.Fatalf("quiet tick advanced the clock to %v", k.Now())
	}
}

// End-to-end: over-budget fast tier demotes cold blocks (paying virtual
// time), a reheated slow block is promoted back, and the recorded plans
// re-price to exactly the engine's measured migration counters.
func TestWatermarkMigratesAndReplays(t *testing.T) {
	cfg := DefaultConfig(Watermark)
	cfg.FastBudgetBytes = 400 // high = 360, low = 280
	k, pool, eng := newHarness(t, cfg)
	reg := telemetry.NewRegistry()
	eng.SetRegistry(reg)

	blocks := pool.Executors[0].Blocks
	if got := blocks.LandingTier(); got != memsim.Tier0 {
		t.Fatalf("dynamic engine landing tier = %v, want Tier 0", got)
	}
	var ids []blockmgr.BlockID
	for i := 0; i < 6; i++ {
		ids = append(ids, put(blocks, i, 100))
	}
	// Heat partitions 0 and 5 so they survive the demotion wave.
	blocks.Get(ids[0])
	blocks.Get(ids[0])
	blocks.Get(ids[5])

	eng.Tick() // 600 B on fast > 360: demote down to <= 280
	if k.Now() == 0 {
		t.Fatal("migration epoch cost no virtual time")
	}
	if eng.MigratedBlocks() != 4 || eng.MigratedBytes() != 400 {
		t.Fatalf("migrated %d blocks / %d bytes, want 4 / 400",
			eng.MigratedBlocks(), eng.MigratedBytes())
	}
	if got := blocks.TierUsed(memsim.Tier0); got != 200 {
		t.Fatalf("fast tier holds %d after demotion, want 200", got)
	}
	for _, id := range []blockmgr.BlockID{ids[0], ids[5]} {
		if tier, _ := blocks.TierOf(id); tier != memsim.Tier0 {
			t.Fatalf("hot block %s demoted to %v", id, tier)
		}
	}

	// Reheat one demoted block; next tick promotes it (200 < low 280).
	blocks.Get(ids[2])
	blocks.Get(ids[2])
	eng.Tick()
	if tier, _ := blocks.TierOf(ids[2]); tier != memsim.Tier0 {
		t.Fatalf("reheated block resident on %v, want Tier 0", tier)
	}
	if eng.MigratedBlocks() <= 4 {
		t.Fatal("second epoch promoted nothing")
	}

	// Gauges reflect the post-migration state.
	if got := reg.Get("tiering.migrated_blocks"); got != eng.MigratedBlocks() {
		t.Fatalf("gauge migrated_blocks = %d, want %d", got, eng.MigratedBlocks())
	}
	if got := reg.Get("tiering.occupancy.tier0"); got != blocks.TierUsed(memsim.Tier0) {
		t.Fatalf("gauge tier0 occupancy = %d, want %d", got, blocks.TierUsed(memsim.Tier0))
	}

	// Replaying the recorded plans on a fresh system reproduces the
	// migration counters the engine measured around its charge batches.
	want := eng.MigrationCounters()
	got := ReplayPlan(eng.Plans(), memsim.DefaultSpecs())
	for _, tid := range memsim.AllTiers() {
		if got[tid] != want[tid] {
			t.Fatalf("%s replayed counters %+v != engine %+v", tid, got[tid], want[tid])
		}
	}
	// And the DCPM side really shows XPLine write traffic: 4 demotions of
	// 100 B each amplify to a 256 B media write per block.
	if got[memsim.Tier2].MediaWriteBytes != 4*256 {
		t.Fatalf("DCPM media write bytes = %d, want %d",
			got[memsim.Tier2].MediaWriteBytes, 4*256)
	}
}

// Replacing a crashed executor and re-attaching rebinds the fresh block
// manager: landing tier restored to fast, a fresh tracker observing.
func TestAttachExecutorAfterReplace(t *testing.T) {
	cfg := DefaultConfig(Watermark)
	cfg.FastBudgetBytes = 400
	_, pool, eng := newHarness(t, cfg)
	put(pool.Executors[1].Blocks, 0, 100)
	if len(eng.execs[1].tracker.AppendSnapshot(nil)) != 1 {
		t.Fatal("tracker missed the put")
	}

	pool.Executors[1].Blocks.RemoveAll()
	fresh := pool.Replace(1)
	eng.AttachExecutor(1)
	if len(eng.execs[1].tracker.AppendSnapshot(nil)) != 0 {
		t.Fatal("re-attach kept the stale tracker")
	}
	if got := fresh.Blocks.LandingTier(); got != memsim.Tier0 {
		t.Fatalf("replacement landing tier = %v, want Tier 0", got)
	}
	put(fresh.Blocks, 3, 100)
	if heatOf(eng.execs[1].tracker, blockmgr.BlockID{RDD: 1, Partition: 3}) != 1 {
		t.Fatal("fresh tracker not observing the replacement manager")
	}
}

// The age policy lands blocks on fast and demotes them once they sit
// idle for maxIdleEpochs epochs, through the mover's rate limit.
func TestAgeEngineDemotesIdleBlocks(t *testing.T) {
	cfg := DefaultConfig(Age)
	cfg.FastBudgetBytes = 10_000 // far from the watermarks: idle age drives everything
	cfg.maxIdleEpochs = 2
	k, pool, eng := newHarness(t, cfg)
	blocks := pool.Executors[0].Blocks
	if got := blocks.LandingTier(); got != memsim.Tier0 {
		t.Fatalf("age engine landing tier = %v, want Tier 0", got)
	}
	hot := put(blocks, 0, 100)
	idle := put(blocks, 1, 100)
	for i := 0; i < 3; i++ {
		blocks.Get(hot) // touched every epoch; the other block only ages
		eng.Tick()
	}
	if tier, _ := blocks.TierOf(idle); tier != memsim.Tier2 {
		t.Fatalf("idle block still on %v after %d epochs", tier, eng.Epochs())
	}
	if tier, _ := blocks.TierOf(hot); tier != memsim.Tier0 {
		t.Fatalf("hot block demoted to %v", tier)
	}
	if k.Now() == 0 {
		t.Fatal("demotion epoch cost no virtual time")
	}
	// Touching the demoted block promotes it back (age 0).
	blocks.Get(idle)
	eng.Tick()
	if tier, _ := blocks.TierOf(idle); tier != memsim.Tier0 {
		t.Fatalf("reheated block resident on %v, want Tier 0", tier)
	}
}

// The forecast policy must not rebind the landing tier, and with no
// promotable blocks its ticks must stay free of virtual time.
func TestForecastEngineLandingAndQuietTicks(t *testing.T) {
	cfg := DefaultConfig(Forecast)
	cfg.FastBudgetBytes = 1000
	k, pool, eng := newHarness(t, cfg)
	blocks := pool.Executors[0].Blocks
	if got := blocks.LandingTier(); got != memsim.Tier2 {
		t.Fatalf("forecast engine rebound landing tier to %v", got)
	}
	// Blocks written every epoch: write-churned, predicted cold-by-write,
	// never promoted — ticks stay quiet.
	for i := 0; i < 4; i++ {
		put(blocks, 0, 100)
		put(blocks, 1, 100)
		eng.Tick()
	}
	if k.Now() != 0 {
		t.Fatalf("write-churn ticks advanced the clock to %v", k.Now())
	}
	if eng.MigratedBlocks() != 0 {
		t.Fatalf("write-churned blocks migrated: %d", eng.MigratedBlocks())
	}
	if len(eng.Heatmaps()) != 4 {
		t.Fatalf("recorded %d heatmaps, want 4", len(eng.Heatmaps()))
	}
}

// A read-hot block under the forecast policy is promoted once its
// predicted heat classifies at promoteClass.
func TestForecastEnginePromotesReadHot(t *testing.T) {
	cfg := DefaultConfig(Forecast)
	cfg.FastBudgetBytes = 1000
	_, pool, eng := newHarness(t, cfg)
	blocks := pool.Executors[0].Blocks
	hot := put(blocks, 0, 100)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			blocks.Get(hot)
		}
		eng.Tick()
		if tier, _ := blocks.TierOf(hot); tier == memsim.Tier0 {
			return
		}
	}
	t.Fatalf("read-hot block never promoted; heat=%v", heatOf(eng.execs[0].tracker, hot))
}

// The engine-level rate limit: with a tiny mover budget, no recorded
// epoch plan exceeds it, and the backlog drains across epochs.
func TestEngineMoverRateLimit(t *testing.T) {
	cfg := DefaultConfig(Age)
	cfg.FastBudgetBytes = 10_000
	cfg.maxIdleEpochs = 1
	cfg.moverBytesPerEpoch = 250 // two 100 B demotions per epoch
	cfg.moverMovesPerEpoch = 64
	_, pool, eng := newHarness(t, cfg)
	blocks := pool.Executors[0].Blocks
	for i := 0; i < 6; i++ {
		put(blocks, i, 100)
	}
	for i := 0; i < 6 && eng.MigratedBlocks() < 6; i++ {
		eng.Tick()
	}
	if eng.MigratedBlocks() != 6 {
		t.Fatalf("backlog never drained: %d/6 migrated", eng.MigratedBlocks())
	}
	if len(eng.Plans()) < 3 {
		t.Fatalf("6 blocks at 2/epoch should span >= 3 plans, got %d", len(eng.Plans()))
	}
	for _, p := range eng.Plans() {
		var bytes int64
		for _, m := range p.Moves {
			bytes += m.Bytes
		}
		if bytes > cfg.moverBytesPerEpoch {
			t.Fatalf("epoch %d moved %d bytes, budget %d", p.Epoch, bytes, cfg.moverBytesPerEpoch)
		}
		if len(p.Moves) > cfg.moverMovesPerEpoch {
			t.Fatalf("epoch %d planned %d moves, budget %d", p.Epoch, len(p.Moves), cfg.moverMovesPerEpoch)
		}
	}
	if eng.execs[0].mover.Pending() != 0 {
		t.Fatalf("mover still holds %d requests", eng.execs[0].mover.Pending())
	}
}
