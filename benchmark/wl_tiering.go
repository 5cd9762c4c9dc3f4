package main

import (
	"fmt"
	"strings"

	"repro/internal/blockmgr"
	"repro/internal/executor"
	"repro/internal/hibench"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/shuffle"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tiering"
	"repro/internal/workloads"
)

// tieringDriver is the only workload where the tiering engine and the
// heat package own a large share of host time (inside a real cell the
// engine is under 2 %).
//
// Phase A is the cmd/autotier policy sweep rebuilt from the public API:
// the caching workloads on heap/shuffle Tier 0 + cache Tier 3, untiered,
// static and every dynamic policy at three DRAM budgets. sort and
// repartition cache nothing and rf's kernel would drown the layer, so
// they are left out on purpose. It carries the modelled-design result
// (tiering.virtual_s) beside the host time.
//
// Phase B is a tick storm: per dynamic policy an engine over a pool of
// cached blocks under a DRAM budget of half the footprint, a rotating
// re-heated window, and epoch after epoch of Engine.Tick. 1 op = 1 Tick.
type tieringDriver struct {
	e *env
}

func (d *tieringDriver) name() string   { return "tiering_sweep" }
func (d *tieringDriver) tailQ() float64 { return 0.98 }
func (d *tieringDriver) close() error   { return nil }

// stormEpochVirtualNS is the virtual time between two storm ticks.
const stormEpochVirtualNS = 1_000_000

func dynamicPolicies() []tiering.PolicyKind {
	var out []tiering.PolicyKind
	for _, p := range tiering.AllPolicies() {
		if p != tiering.Static {
			out = append(out, p)
		}
	}
	return out
}

// tickMetric names the per-policy tick latency metric.
func tickMetric(p tiering.PolicyKind) string {
	return "tiering.tick_us." + strings.TrimSuffix(string(p), "-aware")
}

// setup warms every policy's code path: a tiny sweep of one workload
// and a short storm per policy.
func (d *tieringDriver) setup() (string, error) {
	var st roundStats
	dg := newDigester()
	if err := d.sweepWorkload("pagerank", workloads.Tiny, []float64{0.25}, d.e.seed, nil, 0, &st, dg); err != nil {
		return "", err
	}
	for _, pol := range dynamicPolicies() {
		if err := d.storm(pol, 2, 256, 8, nil, 0, &st, dg); err != nil {
			return "", err
		}
	}
	if st.failed > 0 {
		return "", fmt.Errorf("warm-up check failed (%d of %d)", st.failed, st.attempted)
	}
	return dg.sum(), nil
}

func (d *tieringDriver) round(r int, rec *recorder) (roundStats, error) {
	var st roundStats
	sz := d.e.sz
	dg := newDigester()
	clock := telemetry.StartStopwatch()

	phase := rec.begin(d.name(), "phase A: policy sweep", 0, r)
	for _, w := range sz.tieringRoster {
		if err := d.sweepWorkload(w, sz.tieringSize, sz.tieringFracs, d.e.seed+int64(r), rec, phase, &st, dg); err != nil {
			return st, err
		}
	}
	rec.end(phase)
	sweepSeconds := clock.Seconds()

	phase = rec.begin(d.name(), "phase B: tick storm", 0, r)
	for _, pol := range dynamicPolicies() {
		if err := d.storm(pol, sz.stormExecutors, sz.stormBlocks, sz.stormEpochs, rec, phase, &st, dg); err != nil {
			return st, err
		}
	}
	rec.end(phase)
	st.wall = clock.Seconds()
	st.opSeconds = st.wall - sweepSeconds
	if rec != nil {
		st.sample("tiering.sweep_s", sweepSeconds)
		st.sample("tiering.storm_s", st.opSeconds)
	}
	st.digest = dg.sum()
	return st, nil
}

// sweepWorkload measures one workload's column: untiered, static
// (checked inert), then every dynamic policy x budget fraction.
func (d *tieringDriver) sweepWorkload(w string, size workloads.Size, fracs []float64, seed int64,
	rec *recorder, parent int, st *roundStats, dg *digester) error {
	spec := hibench.RunSpec{
		Workload: w, Size: size, Tier: memsim.Tier0, Seed: seed,
		Placement: &executor.Placement{Heap: memsim.Tier0, Shuffle: memsim.Tier0, Cache: memsim.Tier3},
	}
	cell := func(label string, cfg *tiering.Config) (hibench.RunResult, float64, error) {
		s := spec
		s.Tiering = cfg
		id := rec.begin(d.name(), "hibench.Run "+w+" "+label, parent, 0)
		clock := telemetry.StartStopwatch()
		res, err := hibench.Run(s)
		seconds := clock.Seconds()
		rec.end(id)
		if err == nil {
			dg.addf("%s|%s|%d|%+v|%+v\n", w, label, res.Duration, res.Metrics, res.Tiering)
			if rec != nil {
				st.sample("tiering.cell_ms", seconds*1e3)
			}
		}
		return res, seconds, err
	}

	plain, _, err := cell("untiered", nil)
	if err != nil {
		return err
	}
	staticCfg := tiering.DefaultConfig(tiering.Static)
	static, staticSeconds, err := cell("static", &staticCfg)
	if err != nil {
		return err
	}
	// The static policy must be inert on the virtual observables.
	st.check(plain.Duration == static.Duration && plain.Metrics == static.Metrics &&
		plain.NVMCounters == static.NVMCounters)
	footprint := static.Engine["tiering.occupancy.tier3"]
	st.check(footprint > 0)
	if footprint == 0 {
		return nil
	}

	dynSeconds, cells := 0.0, 0
	for _, frac := range fracs {
		budget := int64(frac * float64(footprint))
		if budget < 1 {
			budget = 1
		}
		for _, pol := range dynamicPolicies() {
			cfg := tiering.DefaultConfig(pol)
			cfg.Slow = memsim.Tier3
			cfg.FastBudgetBytes = budget
			res, seconds, err := cell(fmt.Sprintf("%s@%.2f", pol, frac), &cfg)
			if err != nil {
				return err
			}
			st.check(res.Duration > 0 && res.Tiering.Epochs > 0)
			dynSeconds += seconds
			cells++
			if rec != nil {
				st.count("tiering.epochs", float64(res.Tiering.Epochs))
				st.count("tiering.moves", float64(res.Tiering.MigratedBlocks))
				st.count("tiering.moved_kib", float64(res.Tiering.MigratedBytes)/1024)
				st.count("tiering.refused_moves", float64(res.Engine["tiering.refused_moves"]))
				st.count("tiering.virtual_s", res.Duration.Seconds())
				st.count("tiering.migration_virtual_ms", res.Tiering.MigrationNS/1e6)
			}
		}
	}
	if rec != nil {
		st.sample("tiering.dynamic_over_static", dynSeconds/float64(cells)/staticSeconds)
	}
	return nil
}

// storm drives one policy's engine through epochs ticks. Each epoch
// re-heats a rotating quarter of the blocks so the hot set keeps
// shifting and the planner always has both demotions and promotions.
func (d *tieringDriver) storm(pol tiering.PolicyKind, executors, blocks, epochs int,
	rec *recorder, parent int, st *roundStats, dg *digester) error {
	blockBytes := d.e.sz.stormBlockBytes
	cfg := tiering.DefaultConfig(pol)
	cfg.FastBudgetBytes = int64(blocks) * blockBytes / 2

	storm := rec.begin(d.name(), "storm "+string(pol), parent, 0)
	id := rec.begin(d.name(), "tiering.NewEngine", storm, 0)
	k := sim.NewKernel()
	sys := memsim.NewSystem(k)
	pool := executor.NewPool(executors, 10, numa.BindingForTier(memsim.Tier2), sys, 0)
	eng, err := tiering.NewEngine(cfg, pool, shuffle.NewStore(), executor.DefaultCostModel(), d.e.seed)
	if err != nil {
		return fmt.Errorf("storm %s: %w", pol, err)
	}
	for _, ex := range pool.Executors {
		for i := 0; i < blocks; i++ {
			ex.Blocks.Put(blockmgr.BlockID{RDD: 1, Partition: i}, i, blockBytes, 1)
		}
	}
	rec.end(id)

	window := blocks / 4
	clock := telemetry.StartStopwatch()
	for epoch := 0; epoch < epochs; epoch++ {
		id = rec.begin(d.name(), "blockmgr.Get window", storm, epoch)
		for _, ex := range pool.Executors {
			for i := 0; i < window; i++ {
				ex.Blocks.Get(blockmgr.BlockID{RDD: 1, Partition: (epoch*window + i) % blocks})
			}
		}
		rec.end(id)
		// A stage's worth of virtual time passes between ticks; without
		// it the bandwidth-aware policy's per-epoch budget (a share of
		// peak bandwidth x the epoch's virtual length) stays zero.
		k.After(stormEpochVirtualNS, func(sim.Time) {})
		k.Run()

		id = rec.begin(d.name(), "tiering.Engine.Tick", storm, epoch)
		start := clock.Seconds()
		eng.Tick()
		seconds := clock.Seconds() - start
		rec.end(id)
		st.opLat = append(st.opLat, seconds)
		st.attempted++
		if rec != nil {
			st.sample(tickMetric(pol), seconds*1e6)
		}
	}
	rec.end(storm)
	// A storm that migrates nothing measured the quiet path, not the engine.
	st.check(eng.MigratedBlocks() > 0 && eng.Epochs() == epochs)
	dg.addf("storm|%s|%d|%d|%v|%d\n", pol, eng.MigratedBlocks(), eng.MigratedBytes(), eng.MigrationNS(), k.Now())
	return nil
}

func (d *tieringDriver) layer(rounds []roundStats) map[string]float64 {
	out := map[string]float64{}
	for _, name := range []string{"tiering.sweep_s", "tiering.storm_s", "tiering.cell_ms", "tiering.dynamic_over_static"} {
		out[name] = median(allSamples(rounds, name))
	}
	for _, pol := range dynamicPolicies() {
		out[tickMetric(pol)] = median(allSamples(rounds, tickMetric(pol)))
	}
	for _, name := range []string{"tiering.epochs", "tiering.moves", "tiering.moved_kib",
		"tiering.refused_moves", "tiering.virtual_s", "tiering.migration_virtual_ms"} {
		out[name] = firstCounts(rounds, name)
	}
	return out
}
