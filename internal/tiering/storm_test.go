package tiering

import (
	"crypto/sha256"
	"fmt"
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

// stormDigests are the digests of the storm scenario below, recorded on
// the commit before the id-ordered heat path (map-based trackers, sorted
// snapshots, per-block lookups). The engine's whole virtual output —
// plans, heatmaps, migration counters and the kernel clock — must not
// depend on how block order is kept.
var stormDigests = map[PolicyKind]string{
	Watermark:      "73974ee6f00929d61cd6c50f69b1b864f44e3d9f3565e121343bda5697ffe6b7",
	BandwidthAware: "48f715402cc16f3d9070c79b5255ebe30919cd0c29e521ac5c4d92f17d6de494",
	Age:            "a2d14a2ae01810d51e74981fbdb9cb4c109a2b08909d3c7e0d7fa8fd7910e3b6",
	Forecast:       "9b15a72d5a53d38f08bf9e160f86d7996ca44172936a3ba87d27472e1fcbbcfe",
}

// runStorm drives one policy's engine through the benchmark's tick storm
// in miniature: 4 executors x 1024 blocks x 24 epochs with a rotating
// re-heated window, a rotating rewritten stripe (write heat, landing
// resets), a few explicit removals, and executor 2 crashing at epoch 8
// and being re-attached with half its blocks re-put in descending order.
// The engine publishes its gauges into reg (nil: none), and ticked, when
// set, runs after every tick.
func runStorm(t *testing.T, pol PolicyKind, reg *telemetry.Registry, ticked func()) string {
	t.Helper()
	const (
		executors  = 4
		blocks     = 1024
		epochs     = 24
		blockBytes = 4 << 10
		window     = blocks / 4
	)
	cfg := DefaultConfig(pol)
	cfg.FastBudgetBytes = blocks * blockBytes / 2
	k := sim.NewKernel()
	sys := memsim.NewSystem(k)
	pool := executor.NewPool(executors, 10, numa.BindingForTier(memsim.Tier2), sys, 0)
	eng, err := NewEngine(cfg, pool, shuffle.NewStore(), executor.DefaultCostModel(), 7)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetRegistry(reg)
	id := func(p int) blockmgr.BlockID { return blockmgr.BlockID{RDD: 1, Partition: p} }
	for _, ex := range pool.Executors {
		for i := 0; i < blocks; i++ {
			ex.Blocks.Put(id(i), i, blockBytes, 1)
		}
	}
	for epoch := 0; epoch < epochs; epoch++ {
		if epoch == 8 {
			pool.Executors[2].Blocks.RemoveAll()
			fresh := pool.Replace(2)
			eng.AttachExecutor(2)
			for i := blocks - 1; i >= 0; i -= 2 {
				fresh.Blocks.Put(id(i), i, blockBytes, 1)
			}
		}
		for x, ex := range pool.Executors {
			for i := 0; i < window; i++ {
				ex.Blocks.Get(id((epoch*window + i) % blocks))
			}
			for i := 0; i < 16; i++ {
				p := (epoch*16 + i*61 + x) % blocks
				if _, ok := ex.Blocks.TierOf(id(p)); ok {
					ex.Blocks.Put(id(p), p, blockBytes, 1)
				}
			}
			ex.Blocks.Remove(id((epoch*37 + x*11) % blocks))
		}
		k.After(1_000_000, func(sim.Time) {})
		k.Run()
		eng.Tick()
		if ticked != nil {
			ticked()
		}
	}
	if eng.MigratedBlocks() == 0 || eng.Epochs() != epochs {
		t.Fatalf("%s: storm migrated %d blocks over %d epochs", pol, eng.MigratedBlocks(), eng.Epochs())
	}

	h := sha256.New()
	for _, p := range eng.Plans() {
		fmt.Fprintf(h, "plan|%d|%d\n", p.Epoch, p.At)
		for _, m := range p.Moves {
			fmt.Fprintf(h, "%d|%s|%d|%d|%d\n", m.Exec, m.ID, m.Bytes, m.From, m.To)
		}
	}
	for _, m := range eng.Heatmaps() {
		fmt.Fprintf(h, "heatmap|%d|%d|%v|%v\n", m.Epoch, m.At, m.Map.Blocks, m.Map.Bytes)
	}
	fmt.Fprintf(h, "counters|%+v\nclock|%d\n", eng.MigrationCounters(), k.Now())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Every engine counter that falls between two ticks of the storm is a
// gauge PointInTime names: the cumulative counters only grow, so summing
// them over runs is sound, and a gauge the engine grows later fails here
// until PointInTime names it too.
func TestPointInTimeNamesEveryFallingCounter(t *testing.T) {
	for _, pol := range []PolicyKind{Watermark, BandwidthAware, Age, Forecast} {
		reg := telemetry.NewRegistry()
		var last map[string]int64
		fell := make(map[string]bool)
		runStorm(t, pol, reg, func() {
			now := reg.Snapshot()
			for name, v := range last {
				if now[name] < v {
					fell[name] = true
				}
			}
			last = now
		})
		if !fell["tiering.occupancy.tier0"] {
			t.Errorf("%s: the fast tier's occupancy never fell; the storm checks nothing", pol)
		}
		for name := range fell {
			if !PointInTime(name) {
				t.Errorf("%s: %s fell between ticks, but PointInTime counts it cumulative", pol, name)
			}
		}
	}
}

func TestStormDigestsPinned(t *testing.T) {
	for pol, want := range stormDigests {
		if got := runStorm(t, pol, nil, nil); got != want {
			t.Errorf("%s: storm digest %s, want %s", pol, got, want)
		}
	}
}

// The merge-joined view must say what the tracker says block by block,
// including the two ways a resident block can be missing from the
// snapshot: never observed by this tracker, and combined heat decayed
// out while the write heat lives on (the one case that still asks the
// tracker directly).
func TestViewMatchesTracker(t *testing.T) {
	cfg := DefaultConfig(Watermark)
	cfg.FastBudgetBytes = 1 << 20
	_, pool, eng := newHarness(t, cfg)
	blocks := pool.Executors[0].Blocks
	tr := eng.execs[0].tracker

	blocks.SetObserver(nil)
	unseen := put(blocks, 0, 100)
	blocks.SetObserver(tr)
	churned := put(blocks, 2, 100)
	put(blocks, 2, 100) // heat 1, write 2: the write heat outlives the heat
	for heatOf(tr, churned) != 0 {
		tr.Tick()
	}
	if tr.WriteHeat(churned) == 0 {
		t.Fatal("setup: write heat decayed out together with the heat")
	}
	put(blocks, 1, 100)
	put(blocks, 3, 100)
	blocks.Get(blockmgr.BlockID{RDD: 1, Partition: 3})

	snap := tr.AppendSnapshot(nil)
	if len(snap) != 2 {
		t.Fatalf("setup: snapshot has %d samples, want 2 (blocks 1 and 3)", len(snap))
	}
	epochMap := eng.classifier.NewHeatmap()
	v := eng.view(0, 0, [memsim.NumTiers]memsim.TierSpec{}, snap, nil, &epochMap)
	infos := blocks.AppendBlocks(nil)
	if len(v.Blocks) != 4 || len(infos) != 4 {
		t.Fatalf("view has %d blocks, manager %d, want 4", len(v.Blocks), len(infos))
	}
	for i, b := range v.Blocks {
		if b.BlockInfo != infos[i] {
			t.Fatalf("view block %d = %+v, manager has %+v", i, b.BlockInfo, infos[i])
		}
		if b.Heat != heatOf(tr, b.ID) || b.Predicted != b.Heat || b.Write != tr.WriteHeat(b.ID) {
			t.Fatalf("%s: view heat/predicted/write = %v/%v/%v, tracker heat/write = %v/%v",
				b.ID, b.Heat, b.Predicted, b.Write, heatOf(tr, b.ID), tr.WriteHeat(b.ID))
		}
	}
	if v.Blocks[0].ID != unseen || v.Blocks[0].Heat != 0 || v.Blocks[2].Write == 0 {
		t.Fatalf("unseen/churned blocks read %+v / %+v", v.Blocks[0], v.Blocks[2])
	}
	if n, _ := epochMap.Totals(); n != 4 {
		t.Fatalf("heatmap classified %d blocks, want 4", n)
	}

	// A prediction overrides heat and write heat only for the blocks it
	// names.
	pred := []heat.Sample{{ID: blockmgr.BlockID{RDD: 1, Partition: 3}, Heat: 9, Write: 7}}
	v = eng.view(0, 0, [memsim.NumTiers]memsim.TierSpec{}, snap, pred, &epochMap)
	if b := v.Blocks[3]; b.Predicted != 9 || b.Write != 7 || b.Heat != heatOf(tr, b.ID) {
		t.Fatalf("predicted block reads %+v", b)
	}
	if b := v.Blocks[1]; b.Predicted != b.Heat || b.Write != tr.WriteHeat(b.ID) {
		t.Fatalf("unpredicted block reads %+v", b)
	}
}

// A warm engine's tick must allocate a fixed number of objects however
// many blocks it walks: the snapshot, forecast, view, candidate and move
// lists all live in buffers the engine keeps from tick to tick. Every
// measured tick re-heats a rotating quarter of the blocks and swings the
// fast budget between a quarter and half of the footprint, so each one
// plans (the watermark policies alternate between draining the fast
// tier and refilling it with the re-heated blocks); the warm-up fills
// the history ring, after which every snapshot is written into a
// recycled buffer.
func TestTickAllocsIndependentOfBlocks(t *testing.T) {
	const blockBytes = 4 << 10
	allocs := func(pol PolicyKind, blocks int) float64 {
		footprint := int64(blocks) * blockBytes
		k := sim.NewKernel()
		pool := executor.NewPool(2, 10, numa.BindingForTier(memsim.Tier2), memsim.NewSystem(k), 0)
		cfg := DefaultConfig(pol)
		cfg.FastBudgetBytes = footprint / 2
		eng, err := NewEngine(cfg, pool, shuffle.NewStore(), executor.DefaultCostModel(), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range pool.Executors {
			for i := 0; i < blocks; i++ {
				ex.Blocks.Put(blockmgr.BlockID{RDD: 1, Partition: i}, nil, blockBytes, 1)
			}
		}
		window, epoch := blocks/4, 0
		tick := func() {
			for _, ex := range pool.Executors {
				for i := 0; i < window; i++ {
					ex.Blocks.Get(blockmgr.BlockID{RDD: 1, Partition: (epoch*window + i) % blocks})
				}
			}
			eng.cfg.FastBudgetBytes = footprint / int64(4-2*(epoch%2))
			epoch++
			k.After(10_000_000, func(sim.Time) {})
			k.Run()
			eng.Tick()
		}
		for i := 0; i < 2*historyEpochs; i++ {
			tick()
		}
		plans := len(eng.Plans())
		n := testing.AllocsPerRun(20, tick)
		// AllocsPerRun ticks once more to warm up.
		if got := len(eng.Plans()) - plans; got != 21 {
			t.Fatalf("%s at %d blocks: %d of 21 measured ticks moved blocks, want all", pol, blocks, got)
		}
		return n
	}
	for _, pol := range AllPolicies() {
		if pol == Static {
			continue
		}
		if small, large := allocs(pol, 512), allocs(pol, 4096); small != large {
			t.Errorf("%s: %v allocs per tick at 512 blocks per executor, %v at 4096; want the same fixed count", pol, small, large)
		} else {
			t.Logf("%s: %v", pol, small)
		}
	}
}
