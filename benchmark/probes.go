package main

import (
	"fmt"
	"os"

	"repro/internal/advisor"
	"repro/internal/blockmgr"
	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/heat"
	"repro/internal/hibench"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/rdd"
	"repro/internal/shuffle"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// A probe calls one layer's public functions directly on fixed synthetic
// inputs, for the layers a driver can only reach inside a whole cell
// (rdd, executor, sim, memsim, shuffle, blockmgr, heat) or inside a
// request (the advisor cache, the query key). Probes run in traced runs
// only, take well under a second each, and do not depend on the seed:
// their inputs are part of the benchmark's definition.
const (
	probeRecords    = 200_000 // rdd probes: records, distinct keys, partitions
	probeKeys       = 4096
	probePartitions = 8
	probeRDDReps    = 5

	probeTasks     = 4096 // executor probes
	probeDESReps   = 3
	probeCtxBatch  = 2000
	probeCtxReps   = 10
	probeEvents    = 200_000 // sim probes
	probeSimReps   = 3
	probeFlows     = 64 // concurrent flows per drain
	probeDrains    = 500
	probeBursts    = 1_000_000
	probeMapParts  = 64 // shuffle probe: map x reduce partitions per cycle
	probeReduces   = 64
	probeShuffles  = 200
	probeCacheOps  = 100_000 // blockmgr probe: puts+gets over a 4x oversubscribed cache
	probeHeatBlock = 16_384  // heat probes: tracked blocks
	probeHeatReps  = 20
	probeEntries   = 400 // advisor cache probe: entries stored, then looked up
	probeKeyCalls  = 200_000
)

// probe is one synthetic measurement: run returns the metric's value.
type probe struct {
	metric string
	run    func(p *probeRun) (float64, error)
}

// probeRun carries what probes share.
type probeRun struct {
	e     *env
	rec   *recorder
	scale int
	extra map[string]float64 // second metrics a probe measures in passing
}

// n scales an iteration count down for the smoke test.
func (p *probeRun) n(count int) int {
	if count/p.scale < 2 {
		return 2
	}
	return count / p.scale
}

// timed runs fn reps times under a span each and returns the median
// duration in seconds.
func (p *probeRun) timed(name string, reps int, fn func()) float64 {
	var times []float64
	for i := 0; i < reps; i++ {
		id := p.rec.begin("probes", name, 0, i)
		clock := telemetry.StartStopwatch()
		fn()
		times = append(times, clock.Seconds())
		p.rec.end(id)
	}
	return median(times)
}

func runProbes(e *env, rec *recorder) (map[string]float64, error) {
	p := &probeRun{e: e, rec: rec, scale: e.sz.probeScale, extra: map[string]float64{}}
	out := map[string]float64{}
	for _, pr := range probes() {
		v, err := pr.run(p)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", pr.metric, err)
		}
		out[pr.metric] = v
	}
	for k, v := range p.extra {
		out[k] = v
	}
	return out, nil
}

func probes() []probe {
	return []probe{
		{"rdd.reduce_by_key_ms", probeReduceByKey},
		{"rdd.group_by_key_ms", probeGroupByKey},
		{"rdd.sort_by_key_ms", probeSortByKey},
		{"executor.des_us_per_task", probeDES},
		{"executor.task_context_us", probeTaskContext},
		{"sim.events_per_s", probeKernel},
		{"sim.flows_per_s", probeFlowsPerSecond},
		{"memsim.burst_ns", probeBurst},
		{"shuffle.put_fetch_us", probeShuffle},
		{"blockmgr.put_get_us", probeBlockManager},
		{"heat.tracker_tick_us", probeTrackerTick},
		{"heat.classify_us", probeClassify},
		{"heat.forecast_us", probeForecast},
		{"heat.mover_batch_us", probeMover},
		{"advisor.cache_lookup_us", probeAdvisorCache},
		{"hibench.query_key_ns", probeQueryKey},
	}
}

// probeApp is a minimal application for the rdd probes.
func probeApp() *cluster.App {
	conf := cluster.DefaultConf()
	conf.CoresPerExecutor = 4
	conf.DefaultParallelism = probePartitions
	return cluster.New(conf)
}

func probeInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// probeReduceByKey is the map-side-combining aggregation pipeline over
// dense string keys (the wordcount/bayes shape).
func probeReduceByKey(p *probeRun) (float64, error) {
	records := p.n(probeRecords)
	keys := min(probeKeys, records)
	words := make([]string, records)
	for i := range words {
		words[i] = fmt.Sprintf("key-%05d", i%keys)
	}
	v := 1e3 * p.timed("rdd.ReduceByKey", probeRDDReps, func() {
		pairs := rdd.Map(rdd.Parallelize(probeApp(), "probe-words", words, 0),
			func(s string) rdd.Pair[string, int64] { return rdd.KV(s, int64(1)) })
		counts := rdd.ReduceByKey(pairs, func(a, b int64) int64 { return a + b }, 0)
		if got := len(rdd.Collect(counts)); got != keys {
			panic(fmt.Sprintf("probe reduceByKey: %d keys, want %d", got, keys))
		}
	})
	return v, nil
}

// probeGroupByKey is the ship-everything pipeline (the als/pagerank
// shape); its allocation count is reported beside its time.
func probeGroupByKey(p *probeRun) (float64, error) {
	records := p.n(probeRecords)
	keys := min(probeKeys, records)
	ids := probeInts(records)
	var mallocs []float64
	ms := 1e3 * p.timed("rdd.GroupByKey", probeRDDReps, func() {
		before := mallocCount()
		pairs := rdd.Map(rdd.Parallelize(probeApp(), "probe-ids", ids, 0),
			func(i int) rdd.Pair[int, float64] { return rdd.KV(i%keys, float64(i)) })
		if got := len(rdd.Collect(rdd.GroupByKey(pairs, 0))); got != keys {
			panic(fmt.Sprintf("probe groupByKey: %d keys, want %d", got, keys))
		}
		mallocs = append(mallocs, float64(mallocCount()-before)/1e3)
	})
	p.extra["rdd.group_by_key_mallocs_k"] = median(mallocs)
	return ms, nil
}

// probeSortByKey is the range-partition + per-partition sort pipeline
// (the sort workload's shape) over scrambled integer keys.
func probeSortByKey(p *probeRun) (float64, error) {
	records := p.n(probeRecords)
	ids := probeInts(records)
	v := 1e3 * p.timed("rdd.SortByKey", probeRDDReps, func() {
		pairs := rdd.Map(rdd.Parallelize(probeApp(), "probe-sort", ids, 0),
			func(i int) rdd.Pair[int, int] { return rdd.KV(int(uint32(i)*2654435761%1_000_003), i) })
		sorted := rdd.SortByKey(pairs, func(a, b int) bool { return a < b }, 0)
		if got := rdd.Count(sorted); got != records {
			panic(fmt.Sprintf("probe sortByKey: %d records, want %d", got, records))
		}
	})
	return v, nil
}

// probeTask is a synthetic task profile: some compute, latency-exposed
// lines and streaming plus scattered traffic on the DCPM tier.
func probeTask(exec int) executor.SimTask {
	var prof executor.Profile
	prof.CPUNS = 2e5
	prof.Tiers[memsim.Tier2] = executor.TierCost{
		StallLines: [2]float64{800, 200},
		SeqBytes:   [2]int64{1 << 20, 1 << 18},
		RandBytes:  [2]int64{1 << 14, 1 << 12},
	}
	return executor.SimTask{Profile: prof, ExecID: exec}
}

// probeDES replays a stage of synthetic tasks on a fat pool (1 x 40) and
// a wide one (8 x 5) and reports host microseconds per simulated task.
func probeDES(p *probeRun) (float64, error) {
	tasks := p.n(probeTasks)
	total := 0.0
	for _, layout := range [][2]int{{1, 40}, {8, 5}} {
		stage := make([]executor.SimTask, tasks)
		for i := range stage {
			stage[i] = probeTask(i % layout[0])
		}
		total += p.timed(fmt.Sprintf("executor.SimulateStage %dx%d", layout[0], layout[1]), probeDESReps, func() {
			k := sim.NewKernel()
			pool := executor.NewPool(layout[0], layout[1], numa.BindingForTier(memsim.Tier2), memsim.NewSystem(k), 0)
			if res := executor.SimulateStage(k, pool, stage, executor.DefaultCostModel()); res.Makespan <= 0 {
				panic("probe des: empty makespan")
			}
		})
	}
	return total / float64(2*tasks) * 1e6, nil
}

// probeTaskContext is the per-task fixed cost: build a placed context
// (which seeds its PRNG), charge a little, commit.
func probeTaskContext(p *probeRun) (float64, error) {
	batch := p.n(probeCtxBatch)
	k := sim.NewKernel()
	pool := executor.NewPool(1, 40, numa.BindingForTier(memsim.Tier2), memsim.NewSystem(k), 0)
	ex := pool.Executors[0]
	store := shuffle.NewStore()
	cost := executor.DefaultCostModel()
	seconds := p.timed("executor.NewPlacedTaskContext+Commit", probeCtxReps, func() {
		for i := 0; i < batch; i++ {
			ctx := pool.ConfigureContext(executor.NewPlacedTaskContext(ex.ID, i,
				pool.Tier(), pool.ShuffleTier(), pool.CacheTier(), cost, ex.Blocks, store, 1))
			ctx.CPU(1000)
			ctx.MemSeq(memsim.Read, 4096)
			ctx.Commit()
		}
	})
	return seconds / float64(batch) * 1e6, nil
}

// probeKernel schedules events at scattered times and drains them.
func probeKernel(p *probeRun) (float64, error) {
	events := p.n(probeEvents)
	seconds := p.timed("sim.Kernel.At+Run", probeSimReps, func() {
		k := sim.NewKernel()
		fired := 0
		for i := 0; i < events; i++ {
			k.At(sim.Time(uint32(i)*2654435761%1_000_000), func(sim.Time) { fired++ })
		}
		k.Run()
		if fired != events {
			panic("probe kernel: lost events")
		}
	})
	return float64(events) / seconds, nil
}

// probeFlowsPerSecond drains batches of concurrent processor-sharing flows.
func probeFlowsPerSecond(p *probeRun) (float64, error) {
	drains := p.n(probeDrains)
	seconds := p.timed("sim.SharedServer.Submit", probeSimReps, func() {
		k := sim.NewKernel()
		server := sim.NewSharedServer(k, "probe", 1e9)
		done := 0
		for d := 0; d < drains; d++ {
			for f := 0; f < probeFlows; f++ {
				server.Submit(float64(1000*(f+1)), func(sim.Time) { done++ })
			}
			k.Run()
		}
		if done != drains*probeFlows {
			panic("probe flows: lost flows")
		}
	})
	return float64(drains*probeFlows) / seconds, nil
}

// probeBurst is the media-counter charge every memory access pays.
func probeBurst(p *probeRun) (float64, error) {
	bursts := p.n(probeBursts)
	tier := memsim.NewSystem(sim.NewKernel()).Tier(memsim.Tier2)
	seconds := p.timed("memsim.Tier.RecordBurst", probeSimReps, func() {
		lines := int64(0)
		for i := 0; i < bursts; i++ {
			lines += tier.RecordBurst(memsim.Op(i&1), memsim.Pattern(i>>1&1), int64(64+i&4095), int64(1+i&15))
		}
		if lines == 0 {
			panic("probe burst: nothing charged")
		}
	})
	return seconds / float64(bursts) * 1e9, nil
}

// probeShuffle is one shuffle's life in the store: register, one chunk
// set per map task, one fetch per reduce task, drop. Microseconds per
// chunk set put or fetched.
func probeShuffle(p *probeRun) (float64, error) {
	cycles := p.n(probeShuffles)
	items := make([]int, probeReduces)
	sizes := make([]int64, probeReduces)
	for i := range items {
		items[i], sizes[i] = 10, 640
	}
	seconds := p.timed("shuffle.Store cycle", probeSimReps, func() {
		store := shuffle.NewStore()
		for c := 0; c < cycles; c++ {
			store.RegisterShuffle(c, probeMapParts)
			for m := 0; m < probeMapParts; m++ {
				store.PutChunks(&shuffle.ChunkSet{
					Shuffle: c, MapPart: m, ExecID: m % 4,
					Chunks: items, Items: items, Bytes: sizes,
				})
			}
			for r := 0; r < probeReduces; r++ {
				in, err := store.Inputs(c, r)
				if err != nil || len(in) != probeMapParts {
					panic(fmt.Sprintf("probe shuffle: fetch %d/%d: %v", c, r, err))
				}
			}
			store.DropShuffle(c)
		}
	})
	return seconds / float64(cycles*(probeMapParts+probeReduces)) * 1e6, nil
}

// probeBlockManager reads blocks through a cache a quarter the size of
// the block population, half the reads going to a hot eighth of it, so
// gets both hit and miss and most puts evict.
func probeBlockManager(p *probeRun) (float64, error) {
	ops := p.n(probeCacheOps)
	population := p.n(4096)
	const blockBytes = 4 << 10
	seconds := p.timed("blockmgr.Manager Put+Get", probeSimReps, func() {
		m := blockmgr.New(int64(population) / 4 * blockBytes)
		for i := 0; i < ops; i++ {
			x := uint32(i) * 2654435761
			x ^= x >> 15
			part := int(x>>1) % population
			if x&1 == 0 {
				part %= population / 8
			}
			id := blockmgr.BlockID{RDD: 1, Partition: part}
			if _, _, _, ok := m.Get(id); !ok {
				m.Put(id, i, blockBytes, 1)
			}
		}
		if hits, _, evictions := m.Stats(); hits == 0 || evictions == 0 {
			panic("probe blockmgr: cache neither hit nor evicted")
		}
	})
	return seconds / float64(ops) * 1e6, nil
}

// heatTracker returns an access tracker over the probe's block
// population with a quarter of it re-read, one epoch in.
func heatTracker(blocks int) *heat.AccessTracker {
	tr := heat.NewAccessTracker(0.5)
	for i := 0; i < blocks; i++ {
		tr.BlockPut(blockmgr.BlockID{RDD: 1, Partition: i}, 4<<10)
	}
	for i := 0; i < blocks/4; i++ {
		tr.BlockAccessed(blockmgr.BlockID{RDD: 1, Partition: i * 4}, 4<<10)
	}
	tr.Tick()
	return tr
}

// probeTrackerTick is the per-epoch tracker cost: decay every block and
// take the sorted snapshot.
func probeTrackerTick(p *probeRun) (float64, error) {
	blocks := p.n(probeHeatBlock)
	tr := heatTracker(blocks)
	v := 1e6 * p.timed("heat.Tracker Tick+Snapshot", probeHeatReps, func() {
		for i := 0; i < blocks/4; i++ {
			tr.BlockAccessed(blockmgr.BlockID{RDD: 1, Partition: i * 4}, 4<<10)
		}
		tr.Tick()
		if len(tr.Snapshot()) != blocks {
			panic("probe tracker: snapshot lost blocks")
		}
	})
	return v, nil
}

// probeClassify buckets one snapshot into an epoch heatmap.
func probeClassify(p *probeRun) (float64, error) {
	snap := heatTracker(p.n(probeHeatBlock)).Snapshot()
	cls, err := heat.NewClassifier(heat.DefaultBoundaries())
	if err != nil {
		panic(err)
	}
	v := 1e6 * p.timed("heat.Classifier heatmap", probeHeatReps, func() {
		m := cls.NewHeatmap()
		for _, s := range snap {
			m.Add(s.Heat, 4<<10)
		}
		if blocks, _ := m.Totals(); blocks != int64(len(snap)) {
			panic("probe classify: heatmap lost blocks")
		}
	})
	return v, nil
}

// probeForecast runs the default trend+phase chain over a full history.
func probeForecast(p *probeRun) (float64, error) {
	tr := heatTracker(p.n(probeHeatBlock))
	history := heat.NewHistory(12)
	for epoch := 0; epoch < 12; epoch++ {
		tr.Tick()
		history.Push(tr.Snapshot())
	}
	chain, err := heat.NewChain(heat.AllForecasters())
	if err != nil {
		panic(err)
	}
	cur := tr.Snapshot()
	v := 1e6 * p.timed("heat.Chain.Forecast", probeHeatReps, func() {
		if len(chain.Forecast(history, cur)) != len(cur) {
			panic("probe forecast: prediction lost blocks")
		}
	})
	return v, nil
}

// probeMover enqueues a demotion per block and drains the queue at the
// default per-epoch budgets.
func probeMover(p *probeRun) (float64, error) {
	blocks := p.n(probeHeatBlock)
	v := 1e6 * p.timed("heat.Mover Enqueue+NextBatch", probeSimReps, func() {
		mv := heat.NewMover(256<<10, 64)
		for i := 0; i < blocks; i++ {
			mv.Enqueue(heat.MoveRequest{
				ID: blockmgr.BlockID{RDD: 1, Partition: i}, Bytes: 4 << 10,
				From: memsim.Tier0, To: memsim.Tier2,
			})
		}
		for mv.Pending() > 0 {
			if len(mv.NextBatch(func(heat.MoveRequest) bool { return true })) == 0 {
				panic("probe mover: queue stalled")
			}
		}
	})
	return v, nil
}

// probeAdvisorCache stores synthetic results in a fresh on-disk cache
// and looks each one up; the store time is reported beside the lookup.
func probeAdvisorCache(p *probeRun) (float64, error) {
	entries := p.n(probeEntries)
	dir, err := os.MkdirTemp(p.e.tmp, "probe-cache-*")
	if err != nil {
		return 0, err
	}
	cache := advisor.OpenCache(dir, "probe-engine-hash")
	key := func(i int) string { return fmt.Sprintf("sort|tiny|tier:0||%d", i) }
	res := advisor.Result{
		Query:      hibench.Query{Workload: "sort", Size: "tiny", Placement: "tier:0", Seed: 1},
		DurationNS: 123_456_789, Seconds: 0.123456789, NVMShare: 0.5,
	}
	var storeErr error
	store := p.timed("advisor.Cache.Store", 1, func() {
		for i := 0; i < entries && storeErr == nil; i++ {
			storeErr = cache.Store(key(i), res)
		}
	})
	if storeErr != nil {
		return 0, storeErr
	}
	p.extra["advisor.cache_store_us"] = store / float64(entries) * 1e6
	lookup := p.timed("advisor.Cache.Lookup", probeSimReps, func() {
		for i := 0; i < entries; i++ {
			if got, ok := cache.Lookup(key(i)); !ok || got.DurationNS != res.DurationNS {
				panic("probe cache: stored entry not found")
			}
		}
	})
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	return lookup / float64(entries) * 1e6, nil
}

// probeQueryKey is the canonicalisation every advisor request pays.
func probeQueryKey(p *probeRun) (float64, error) {
	calls := p.n(probeKeyCalls)
	q := hibench.Query{Workload: "pagerank", Size: "large", Placement: "interleave:0.50", Policy: "cxl-dram", Seed: 7}
	seconds := p.timed("hibench.Query Normalize+Key", probeSimReps, func() {
		for i := 0; i < calls; i++ {
			nq, err := q.Normalize()
			if err != nil || nq.Key() == "" {
				panic(fmt.Sprintf("probe query key: %v", err))
			}
		}
	})
	return seconds / float64(calls) * 1e9, nil
}
