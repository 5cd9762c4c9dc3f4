// Package cluster assembles one Spark application in pseudo-distributed
// standalone mode, as in the paper's testbed: a driver plus N executors on
// one machine, each executor bound with numactl-style cpunodebind/membind
// to a compute socket and a memory tier. It implements rdd.Driver, so
// workloads are written purely against the RDD API.
package cluster

import (
	"fmt"

	"repro/internal/blockmgr"
	"repro/internal/energy"
	"repro/internal/executor"
	"repro/internal/faults"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/rdd"
	"repro/internal/scheduler"
	"repro/internal/shuffle"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tiering"
	"repro/internal/trace"
)

// Conf is the tunable Spark/hardware configuration of one application run.
type Conf struct {
	// Executors is the number of executor processes (Figure 4's Y axis).
	Executors int
	// CoresPerExecutor is each executor's core count; Executors x
	// CoresPerExecutor is the total cores used (Figure 4's X axis).
	CoresPerExecutor int
	// Binding pins executors to a compute socket and memory tier.
	Binding numa.Binding
	// DefaultParallelism is the shuffle/source partition count
	// (spark.default.parallelism). Zero defaults to 2x total cores.
	DefaultParallelism int
	// CacheCapacity bounds each executor's block manager (0 = unbounded).
	CacheCapacity int64
	// BandwidthCap applies an Intel-MBA-style throttle in (0,1]; zero
	// means uncapped.
	BandwidthCap float64
	// Placement optionally routes heap, shuffle and cache traffic to
	// different tiers (the §IV-G "tier per access type" exploration);
	// nil places every category on Binding.Mem, the paper's membind.
	Placement *executor.Placement
	// TierSpecs overrides the machine's tier specifications (what-if
	// studies on hypothetical memory technologies); nil uses the paper's
	// Table I testbed.
	TierSpecs *[memsim.NumTiers]memsim.TierSpec
	// Faults is the application's deterministic fault schedule (executor
	// crashes, stragglers, seeded task failures and their retry bounds);
	// nil injects nothing.
	Faults *faults.Plan
	// TaskParallelism bounds the worker goroutines that compute real task
	// data concurrently during phase 1 of stage execution. Virtual-time
	// results are identical for any value (see DESIGN.md, "Execution
	// model"); only wall-clock changes. Zero selects runtime.GOMAXPROCS(0);
	// 1 forces sequential computation.
	TaskParallelism int
	// Seed drives all randomness in the application.
	Seed int64
	// Cost overrides the cost model; zero value selects the default.
	Cost *executor.CostModel
	// Tiering enables the dynamic block-migration engine with the given
	// policy configuration; nil disables tiering entirely. The static
	// policy attaches the engine (ledgers observe, gauges publish) but
	// never migrates — byte-identical to a nil config.
	Tiering *tiering.Config
	// Quota meters the application's cached blocks against the owning
	// tenant's two-tier memory budget (see blockmgr.TenantQuota): blocks
	// over the fast budget degrade to the slow tier, and exhaustion of
	// both surfaces as a typed *blockmgr.QuotaExceededError. The quota
	// object is shared by every App of the tenant — the multitenant
	// admission engine passes the same pointer to concurrent jobs so
	// budgets are enforced cluster-wide. Nil disables metering.
	Quota *blockmgr.TenantQuota
}

// DefaultConf is the paper's default deployment: one executor using all 40
// hyperthreads of a socket, bound to local DRAM (Tier 0).
func DefaultConf() Conf {
	return Conf{
		Executors:        1,
		CoresPerExecutor: numa.DefaultTopology().HyperthreadsPerSocket(),
		Binding:          numa.BindingForTier(memsim.Tier0),
		Seed:             1,
	}
}

// Validate checks the configuration against the machine.
func (c Conf) Validate() error {
	topo := numa.DefaultTopology()
	if c.Executors <= 0 {
		return fmt.Errorf("cluster: %d executors", c.Executors)
	}
	if c.CoresPerExecutor <= 0 {
		return fmt.Errorf("cluster: %d cores per executor", c.CoresPerExecutor)
	}
	if total := c.Executors * c.CoresPerExecutor; total > topo.TotalThreads() {
		return fmt.Errorf("cluster: %d cores requested, machine has %d", total, topo.TotalThreads())
	}
	if c.BandwidthCap < 0 || c.BandwidthCap > 1 {
		return fmt.Errorf("cluster: bandwidth cap %v out of [0,1]", c.BandwidthCap)
	}
	if c.Placement != nil {
		if err := c.Placement.Validate(); err != nil {
			return err
		}
	}
	if c.TaskParallelism < 0 {
		return fmt.Errorf("cluster: task parallelism %d negative", c.TaskParallelism)
	}
	if err := c.Faults.Validate(c.Executors); err != nil {
		return err
	}
	if c.Tiering != nil {
		if err := c.Tiering.Validate(); err != nil {
			return err
		}
	}
	if c.Quota != nil {
		if err := c.Quota.Validate(); err != nil {
			return err
		}
	}
	return c.Binding.Validate()
}

// App is one running Spark application over the simulated machine.
type App struct {
	conf  Conf
	kern  *sim.Kernel
	sys   *memsim.System
	pool  *executor.Pool
	store *shuffle.Store
	sched *scheduler.Scheduler
	cost  executor.CostModel
	meter *energy.Meter
	tier  *tiering.Engine

	rddSeq     int
	shuffleSeq int
	tracer     *trace.Recorder
	gen        *rdd.GenStore // host-only: see ShareGenerated
}

// New builds an application: fresh kernel and memory system, executors
// bound per the configuration, and the executors already launched through
// scheduler.Launch (a serial driver-side delay per executor, then JVM
// spin-up plus heap initialization traffic on the bound tier — this is
// why even tiny workloads have a tier-independent floor).
func New(conf Conf) *App {
	if err := conf.Validate(); err != nil {
		panic(err)
	}
	cost := executor.DefaultCostModel()
	if conf.Cost != nil {
		cost = *conf.Cost
	}
	if conf.DefaultParallelism <= 0 {
		conf.DefaultParallelism = 2 * conf.Executors * conf.CoresPerExecutor
	}
	k := sim.NewKernel()
	var sys *memsim.System
	if conf.TierSpecs != nil {
		sys = memsim.NewSystemWithSpecs(k, *conf.TierSpecs)
	} else {
		sys = memsim.NewSystem(k)
	}
	if conf.BandwidthCap > 0 {
		sys.SetBandwidthCap(conf.BandwidthCap)
	}
	placement := executor.UniformPlacement(conf.Binding.Mem)
	if conf.Placement != nil {
		placement = *conf.Placement
	}
	pool := executor.NewPlacedPool(conf.Executors, conf.CoresPerExecutor, conf.Binding, sys, placement, conf.CacheCapacity)
	if conf.Quota != nil {
		pool.AttachQuota(conf.Quota)
	}
	a := &App{
		conf:  conf,
		kern:  k,
		sys:   sys,
		pool:  pool,
		store: shuffle.NewStore(),
		cost:  cost,
		meter: energy.NewMeter(),
	}
	// Chunk sets committed to the shuffle store register their residency
	// with the block manager's chunk ledger on the pool.
	a.store.SetLedger(pool.ChunkStore())
	if conf.Tiering != nil {
		eng, err := tiering.NewEngine(*conf.Tiering, pool, a.store, cost, conf.Seed)
		if err != nil {
			panic(err)
		}
		a.tier = eng
	}
	a.sched = scheduler.New(a)
	if a.tier != nil {
		a.tier.SetRegistry(a.sched.Counters())
	}
	a.sched.Launch(a.pool.Executors...)
	return a
}

// Kernel implements scheduler.Env.
func (a *App) Kernel() *sim.Kernel { return a.kern }

// Pool implements scheduler.Env.
func (a *App) Pool() *executor.Pool { return a.pool }

// ShuffleStore implements scheduler.Env.
func (a *App) ShuffleStore() *shuffle.Store { return a.store }

// Cost implements scheduler.Env.
func (a *App) Cost() executor.CostModel { return a.cost }

// Seed implements rdd.Driver and scheduler.Env.
func (a *App) Seed() int64 { return a.conf.Seed }

// Tracer implements scheduler.Env; nil until EnableTracing is called.
func (a *App) Tracer() *trace.Recorder { return a.tracer }

// FaultPlan implements scheduler.Env.
func (a *App) FaultPlan() *faults.Plan { return a.conf.Faults }

// Tiering implements scheduler.Env and exposes the dynamic tiering
// engine; nil when the conf leaves tiering disabled.
func (a *App) Tiering() *tiering.Engine { return a.tier }

// TaskParallelism implements scheduler.Env: the conf's phase-1 worker
// count; zero leaves par.Do to pick runtime.GOMAXPROCS(0).
func (a *App) TaskParallelism() int { return a.conf.TaskParallelism }

// EngineCounters exposes the scheduler's engine-level counter registry
// (tasks computed, stage attempts run, recovery actions).
func (a *App) EngineCounters() *telemetry.Registry { return a.sched.Counters() }

// EnableTracing turns on stage-span recording and returns the recorder.
// Call it before running jobs; spans land in chrome://tracing format via
// trace.Recorder.WriteChromeTrace.
func (a *App) EnableTracing() *trace.Recorder {
	if a.tracer == nil {
		a.tracer = &trace.Recorder{}
	}
	return a.tracer
}

// System exposes the memory system (for probes and experiment harnesses).
func (a *App) System() *memsim.System { return a.sys }

// Tier returns the tier executors are bound to.
func (a *App) Tier() *memsim.Tier { return a.pool.Tier() }

// ShareGenerated makes the application's generated sources read their
// partitions, and its derived pages, from store, which the other runs of
// an evaluation batch or of hibench.Run's input slot share, instead of
// from the store the application owns; a nil store keeps the
// application's own. Call it before building datasets. The store is
// host-side state: it changes which Go values hold the records, never the
// records, the charges or anything the run reports.
func (a *App) ShareGenerated(store *rdd.GenStore) {
	if store != nil {
		a.gen = store
	}
}

// GenStore implements rdd.Driver: the one ShareGenerated swapped in, or
// else the application's own store, made at the first ask and dropped
// with the application when its run ends. Sources and derivations bind
// it on the driver, so the first ask is never concurrent.
func (a *App) GenStore() *rdd.GenStore {
	if a.gen == nil {
		a.gen = rdd.NewGenStore(false)
	}
	return a.gen
}

// NextRDDID implements rdd.Driver.
func (a *App) NextRDDID() int { a.rddSeq++; return a.rddSeq }

// NextShuffleID implements rdd.Driver.
func (a *App) NextShuffleID() int { a.shuffleSeq++; return a.shuffleSeq }

// DefaultParallelism implements rdd.Driver.
func (a *App) DefaultParallelism() int { return a.conf.DefaultParallelism }

// RunJob implements rdd.Driver by delegating to the DAG scheduler.
func (a *App) RunJob(final *rdd.Base, fn rdd.ResultFunc) []any {
	return a.sched.RunJob(final, fn)
}

// Elapsed is the virtual time since executor startup completed — the
// paper's "execution time" for a workload run on this application.
func (a *App) Elapsed() sim.Time { return a.kern.Now() }

// Metrics snapshots the run-level system metrics: scheduler stats, the
// counters of every tier the app touched (summed — with the paper's
// uniform membind that is exactly the bound tier) and the bound device
// group's energy over the full elapsed time (startup included, as a real
// measurement would).
func (a *App) Metrics() telemetry.RunMetrics {
	var m telemetry.RunMetrics
	m.Duration = a.Elapsed()
	st := a.sched.Stats()
	m.CPUNS = st.CPUNS
	m.StallNS = st.StallNS
	m.Stages = st.Stages
	m.Tasks = st.Tasks
	m.ShuffleRead = st.ShuffleRead
	m.MaxSharers = st.MaxSharers
	var total memsim.Counters
	for _, id := range memsim.AllTiers() {
		total.Add(a.sys.Tier(id).Counters())
	}
	m.FromCounters(total)
	for _, ex := range a.pool.Executors {
		h, mi, _ := ex.Blocks.Stats()
		m.CacheHits += h
		m.CacheMisses += mi
	}
	m.EnergyJ = a.meter.Measure(a.Tier().Spec, a.Tier().Counters(), a.Elapsed()).TotalJ
	return m
}

// EnergyReport measures a tier's device-group energy over the app's
// elapsed time (Figure 2 bottom compares Tier 0 DRAM vs Tier 2 DCPM).
func (a *App) EnergyReport(tier memsim.TierID) energy.Report {
	t := a.sys.Tier(tier)
	return a.meter.Measure(t.Spec, t.Counters(), a.Elapsed())
}

var _ rdd.Driver = (*App)(nil)
var _ scheduler.Env = (*App)(nil)
