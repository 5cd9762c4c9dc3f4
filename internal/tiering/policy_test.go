package tiering

import (
	"math"
	"testing"

	"repro/internal/blockmgr"
	"repro/internal/executor"
	"repro/internal/heat"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/shuffle"
	"repro/internal/sim"
)

// testView builds a view over synthetic blocks, all 100 bytes, with the
// given residency and heat, keeping block ids in insertion order.
func testView(cfg Config, heats []float64, tiers []memsim.TierID) View {
	v := View{EpochSeconds: 1, Specs: memsim.DefaultSpecs()}
	for i := range heats {
		b := BlockHeat{Heat: heats[i], Predicted: heats[i]}
		b.ID = blockmgr.BlockID{RDD: 1, Partition: i}
		b.Bytes = 100
		b.Tier = tiers[i]
		v.Blocks = append(v.Blocks, b)
		if tiers[i] == cfg.Fast {
			v.FastUsed += 100
		}
	}
	return v
}

func dynConfig(policy PolicyKind, budget int64) Config {
	cfg := DefaultConfig(policy)
	cfg.FastBudgetBytes = budget
	return cfg
}

func TestStaticPlansNothing(t *testing.T) {
	cfg := DefaultConfig(Static)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	v := testView(dynConfig(Watermark, 100), []float64{0, 0, 0},
		[]memsim.TierID{memsim.Tier0, memsim.Tier0, memsim.Tier0})
	if moves := NewPolicy(cfg).Plan(cfg, v); moves != nil {
		t.Fatalf("static policy planned %v", moves)
	}
}

func TestWatermarkDemotesColdestFirst(t *testing.T) {
	// Budget 400: high = 360, low = 280. Six 100 B fast blocks = 600 B
	// used, so demote until <= 280, i.e. 4 blocks, coldest first with id
	// tie-breaks.
	cfg := dynConfig(Watermark, 400)
	heats := []float64{5, 1, 1, 0, 2, 9}
	tiers := make([]memsim.TierID, 6)
	for i := range tiers {
		tiers[i] = cfg.Fast
	}
	moves := NewPolicy(cfg).Plan(cfg, testView(cfg, heats, tiers))
	wantParts := []int{3, 1, 2, 4} // heat 0, then 1 (id 1 before id 2), then 2
	if len(moves) != len(wantParts) {
		t.Fatalf("planned %d demotions %v, want %d", len(moves), moves, len(wantParts))
	}
	for i, m := range moves {
		if m.ID.Partition != wantParts[i] || m.From != cfg.Fast || m.To != cfg.Slow {
			t.Fatalf("move %d = %+v, want partition %d fast->slow", i, m, wantParts[i])
		}
	}
}

func TestWatermarkPromotesHottestThatFit(t *testing.T) {
	// Budget 1000: high = 900, low = 700. One 100 B fast block leaves
	// 600 B of headroom below high; promote hottest slow blocks with
	// heat >= minHeat (0.25).
	cfg := dynConfig(Watermark, 1000)
	heats := []float64{1, 4, 3, 0.1, 2}
	tiers := []memsim.TierID{cfg.Fast, cfg.Slow, cfg.Slow, cfg.Slow, cfg.Slow}
	moves := NewPolicy(cfg).Plan(cfg, testView(cfg, heats, tiers))
	wantParts := []int{1, 2, 4} // heat 4, 3, 2; partition 3 is below minHeat
	if len(moves) != len(wantParts) {
		t.Fatalf("planned %d promotions %v, want %d", len(moves), moves, len(wantParts))
	}
	for i, m := range moves {
		if m.ID.Partition != wantParts[i] || m.From != cfg.Slow || m.To != cfg.Fast {
			t.Fatalf("move %d = %+v, want partition %d slow->fast", i, m, wantParts[i])
		}
	}
}

func TestWatermarkInsideBandIsQuiet(t *testing.T) {
	// Budget 400: 300 B used sits between low (280) and high (360).
	cfg := dynConfig(Watermark, 400)
	heats := []float64{1, 1, 1}
	tiers := []memsim.TierID{cfg.Fast, cfg.Fast, cfg.Fast}
	if moves := NewPolicy(cfg).Plan(cfg, testView(cfg, heats, tiers)); moves != nil {
		t.Fatalf("in-band view planned %v", moves)
	}
}

func TestBandwidthAwareTruncatesPlan(t *testing.T) {
	cfg := dynConfig(BandwidthAware, 400)
	heats := []float64{0, 0, 0, 0, 0, 0}
	tiers := make([]memsim.TierID, 6)
	for i := range tiers {
		tiers[i] = cfg.Fast
	}
	v := testView(cfg, heats, tiers)
	// Watermark alone would demote 4 blocks (400 B). Cap the epoch's
	// budget toward the slow tier at ~214 B: frac x 10.7 GB/s x 1 µs.
	v.EpochSeconds = 1e-6
	cfg.migrationBWFrac = 0.02
	moves := NewPolicy(cfg).Plan(cfg, v)
	if len(moves) != 2 {
		t.Fatalf("bandwidth-aware planned %d moves %v, want 2", len(moves), moves)
	}
	// A zero-length epoch allows no migration at all.
	v.EpochSeconds = 0
	if moves := NewPolicy(cfg).Plan(cfg, v); len(moves) != 0 {
		t.Fatalf("zero epoch planned %v", moves)
	}
}

func TestAgeDemotesIdleAndPromotesFresh(t *testing.T) {
	// Budget 10000: watermarks are far away, so idle age alone decides.
	// maxIdleEpochs 2 -> cutoff HeatForAge(2) = 1/3.
	cfg := dynConfig(Age, 10_000)
	heats := []float64{
		heat.HeatForAge(3), // fast, idle 3 epochs -> demote (oldest)
		heat.HeatForAge(2), // fast, idle 2 epochs -> demote
		heat.HeatForAge(1), // fast, fresh -> stays
		heat.HeatForAge(1), // slow, touched last epoch -> promote
		heat.HeatForAge(4), // slow, long idle -> stays
	}
	tiers := []memsim.TierID{cfg.Fast, cfg.Fast, cfg.Fast, cfg.Slow, cfg.Slow}
	moves := NewPolicy(cfg).Plan(cfg, testView(cfg, heats, tiers))
	if len(moves) != 3 {
		t.Fatalf("planned %d moves %v, want 3", len(moves), moves)
	}
	// Demotions oldest-first, then the promotion.
	if moves[0].ID.Partition != 0 || moves[0].To != cfg.Slow {
		t.Fatalf("move 0 = %+v, want partition 0 demoted", moves[0])
	}
	if moves[1].ID.Partition != 1 || moves[1].To != cfg.Slow {
		t.Fatalf("move 1 = %+v, want partition 1 demoted", moves[1])
	}
	if moves[2].ID.Partition != 3 || moves[2].To != cfg.Fast {
		t.Fatalf("move 2 = %+v, want partition 3 promoted", moves[2])
	}
}

func TestAgeDrainsOverBudgetFastTier(t *testing.T) {
	// Budget 400 (high 360, low 280), six fresh 100 B fast blocks: none
	// are idle, but occupancy is over the high mark, so the coldest are
	// drained down to the low mark.
	cfg := dynConfig(Age, 400)
	fresh := heat.HeatForAge(1)
	heats := []float64{fresh, fresh, fresh, fresh, fresh, fresh}
	tiers := make([]memsim.TierID, 6)
	for i := range tiers {
		tiers[i] = cfg.Fast
	}
	moves := NewPolicy(cfg).Plan(cfg, testView(cfg, heats, tiers))
	if len(moves) != 4 {
		t.Fatalf("planned %d demotions %v, want 4 (600 -> 200 B)", len(moves), moves)
	}
}

func TestForecastPromotesPredictedHotSkipsWriters(t *testing.T) {
	// promoteClass 2 with default boundaries {0.5, 2, 8}: predicted heat
	// must reach 2. writeHeatMax 0.5 screens out the write-churned block.
	cfg := dynConfig(Forecast, 1000)
	cfg.promoteClass = 2
	v := testView(cfg,
		[]float64{1, 3, 3, 1.9, 0.2},
		[]memsim.TierID{cfg.Fast, cfg.Slow, cfg.Slow, cfg.Slow, cfg.Slow})
	v.Blocks[2].Write = 0.9 // predicted write-hot: never promoted
	moves := NewPolicy(cfg).Plan(cfg, v)
	if len(moves) != 1 {
		t.Fatalf("planned %v, want exactly the read-hot promotion", moves)
	}
	if m := moves[0]; m.ID.Partition != 1 || m.From != cfg.Slow || m.To != cfg.Fast {
		t.Fatalf("move = %+v, want partition 1 slow->fast", m)
	}
}

func TestForecastDemotesPredictedCold(t *testing.T) {
	// A fast block predicted cold (class 0) is evacuated even though the
	// occupancy is inside the watermark band.
	cfg := dynConfig(Forecast, 1000)
	v := testView(cfg,
		[]float64{3, 3},
		[]memsim.TierID{cfg.Fast, cfg.Fast})
	v.Blocks[0].Predicted = 0.1
	moves := NewPolicy(cfg).Plan(cfg, v)
	if len(moves) != 1 || moves[0].ID.Partition != 0 || moves[0].To != cfg.Slow {
		t.Fatalf("planned %v, want partition 0 demoted", moves)
	}
}

func TestConfigValidate(t *testing.T) {
	good := dynConfig(Watermark, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Policy: "lru"},
		dynConfig(Watermark, 0),
		func() Config { c := dynConfig(Watermark, 1); c.Slow = c.Fast; return c }(),
		func() Config { c := dynConfig(BandwidthAware, 1); c.migrationBWFrac = 0; return c }(),
		func() Config { c := dynConfig(Age, 1); c.maxIdleEpochs = 0; return c }(),
		func() Config { c := dynConfig(Age, 1); c.moverBytesPerEpoch = 0; return c }(),
		func() Config { c := dynConfig(Forecast, 1); c.moverMovesPerEpoch = 0; return c }(),
		func() Config { c := dynConfig(Forecast, 1); c.promoteClass = 4; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %d (%+v) validated", i, c)
		}
	}
	// Static ignores the dynamic knobs entirely.
	if err := (Config{Policy: Static}).Validate(); err != nil {
		t.Fatal(err)
	}
}

// FuzzTieringConfigValidate holds Validate to its word over every field,
// the unexported calibration included: a config it accepts builds an
// engine on a one-executor pool, and that engine survives a few epochs of
// cache traffic without panicking.
func FuzzTieringConfigValidate(f *testing.F) {
	for _, pol := range AllPolicies() {
		c := dynConfig(pol, 1<<20)
		f.Add(string(c.Policy), int(c.Fast), int(c.Slow), c.FastBudgetBytes, c.migrationBWFrac,
			c.maxIdleEpochs, c.moverBytesPerEpoch, c.moverMovesPerEpoch, c.promoteClass)
	}
	f.Add("lru", 0, 2, int64(1), 0.05, 2, int64(1), 1, 1)
	f.Add("watermark", 2, 2, int64(1<<62), 0.05, 2, int64(1), 1, 1)
	f.Add("bandwidth-aware", 3, 1, int64(1), math.NaN(), 0, int64(0), 0, -1)
	f.Add("forecast", 0, 2, int64(300), 1.0, 1, int64(math.MaxInt64), math.MaxInt, 3)
	f.Fuzz(func(t *testing.T, policy string, fast, slow int, budget int64, bwFrac float64,
		idle int, moverBytes int64, moverMoves, promoteClass int) {
		cfg := Config{
			Policy: PolicyKind(policy), Fast: memsim.TierID(fast), Slow: memsim.TierID(slow),
			FastBudgetBytes: budget, migrationBWFrac: bwFrac, maxIdleEpochs: idle,
			moverBytesPerEpoch: moverBytes, moverMovesPerEpoch: moverMoves, promoteClass: promoteClass,
		}
		if cfg.Validate() != nil {
			return
		}
		k := sim.NewKernel()
		pool := executor.NewPool(1, 2, numa.BindingForTier(memsim.Tier2), memsim.NewSystem(k), 0)
		eng, err := NewEngine(cfg, pool, shuffle.NewStore(), executor.DefaultCostModel(), 1)
		if err != nil {
			t.Fatalf("Validate accepted %+v, NewEngine did not: %v", cfg, err)
		}
		blocks := pool.Executors[0].Blocks
		for epoch := 0; epoch < 4; epoch++ {
			for p := 0; p < 6; p++ {
				id := blockmgr.BlockID{RDD: 1, Partition: p}
				if epoch == 0 || p == epoch {
					blocks.Put(id, p, 100, 1)
				} else if p%2 == 0 {
					blocks.Get(id)
				}
			}
			k.After(1_000_000, func(sim.Time) {})
			k.Run()
			eng.Tick()
		}
	})
}
