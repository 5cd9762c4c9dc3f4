// Package hibench is the experiment harness: it runs one HiBench workload
// under one hardware/software configuration (memory tier, executor layout,
// bandwidth cap) on a fresh simulated cluster and records everything the
// paper measures — execution time, media access counters, DIMM energy and
// system-level metrics.
package hibench

import (
	"fmt"
	"sync"

	"repro/internal/blockmgr"
	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/executor"
	"repro/internal/faults"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/rdd"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tiering"
	"repro/internal/workloads"
)

// RunSpec names one experiment cell.
type RunSpec struct {
	// Workload is the Table II abbreviation.
	Workload string
	// Size selects the dataset profile.
	Size workloads.Size
	// Tier binds the executors' memory (numactl membind).
	Tier memsim.TierID
	// Executors and CoresPerExecutor define the Spark layout; zero values
	// select the paper default (1 executor x 40 cores).
	Executors        int
	CoresPerExecutor int
	// Parallelism fixes spark.default.parallelism; zero selects 80
	// (2 x the default 40 cores), held constant across executor sweeps so
	// layout effects are isolated from partitioning effects.
	Parallelism int
	// BandwidthCap applies an MBA throttle in (0,1]; zero = uncapped.
	BandwidthCap float64
	// Placement optionally routes heap/shuffle/cache traffic to distinct
	// tiers; nil binds everything to Tier (the paper's membind).
	Placement *executor.Placement
	// TierSpecs overrides the machine's tier specifications (what-if
	// studies on hypothetical memory technologies); nil uses the paper's
	// Table I testbed.
	TierSpecs *[memsim.NumTiers]memsim.TierSpec
	// TaskParallelism bounds the phase-1 compute workers; zero selects
	// runtime.GOMAXPROCS(0), 1 forces sequential computation. The whole
	// RunResult is identical either way, apart from this field.
	TaskParallelism int
	// Faults is the deterministic fault schedule for the run (executor
	// crashes, stragglers, injected task failures); nil injects nothing.
	// A run whose recovery budget is exhausted returns the job-abort
	// error instead of a result.
	Faults *faults.Plan
	// Tiering enables the dynamic block-migration engine for the run;
	// nil disables it (see cluster.Conf.Tiering).
	Tiering *tiering.Config
	// Quota meters cached blocks against the owning tenant's shared
	// two-tier budget (see cluster.Conf.Quota); nil disables metering.
	// A run that exhausts both budgets returns the typed
	// *blockmgr.QuotaExceededError instead of a full result.
	Quota *blockmgr.TenantQuota
	// Seed defaults to 1.
	Seed int64
}

// WithDefaults fills zero fields the way Run does: the spec a RunResult
// carries.
func (s RunSpec) WithDefaults() RunSpec {
	if s.Executors == 0 {
		s.Executors = 1
	}
	if s.CoresPerExecutor == 0 {
		s.CoresPerExecutor = numa.DefaultTopology().HyperthreadsPerSocket()
	}
	if s.Parallelism == 0 {
		s.Parallelism = 2 * numa.DefaultTopology().HyperthreadsPerSocket()
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Key renders the cell's canonical identity: specs with equal keys run the
// same simulation and yield the same virtual results, so a memo (core's
// evaluator) may answer one with the other's RunResult. Every field is
// resolved the way Run and cluster.New resolve it — defaults applied, a
// nil Placement is the uniform membind of Tier, nil TierSpecs the Table I
// testbed (both rendered by value, never by pointer), and a BandwidthCap of
// 1.0 is the uncapped machine. TaskParallelism is left out: it moves host
// time only. ok is false for a spec carrying Faults, Tiering or Quota — a
// tenant quota is mutable state shared with other runs, fault plans and
// tiering configs have no canonical rendering — and such a cell must never
// be memoised.
func (s RunSpec) Key() (key string, ok bool) {
	if s.Faults != nil || s.Tiering != nil || s.Quota != nil {
		return "", false
	}
	s = s.WithDefaults()
	bwCap := s.BandwidthCap
	if bwCap == 1 {
		bwCap = 0
	}
	placement := executor.UniformPlacement(s.Tier)
	if s.Placement != nil {
		placement = *s.Placement
	}
	specs := memsim.DefaultSpecs()
	if s.TierSpecs != nil {
		specs = *s.TierSpecs
	}
	return fmt.Sprintf("%q|%d|%d|%dx%d|%d|%g|%d|%+v|%+v", s.Workload, s.Size, s.Tier,
		s.Executors, s.CoresPerExecutor, s.Parallelism, bwCap, s.Seed, placement, specs), true
}

// String renders "pagerank/large@Tier 2 4x10".
func (s RunSpec) String() string {
	return fmt.Sprintf("%s/%s@%s %dx%d", s.Workload, s.Size, s.Tier, s.Executors, s.CoresPerExecutor)
}

// RunResult is the full measurement record of one run. A memo that
// answers several requesters from one run (see RunSpec.Key) hands each a
// shallow copy carrying the requester's own Spec, defaults applied — what
// Run would have returned it; the Engine map and the Heatmaps slice are
// then shared between the copies and are read-only.
type RunResult struct {
	Spec     RunSpec
	Duration sim.Time
	Metrics  telemetry.RunMetrics
	Summary  workloads.Summary
	// BoundEnergy is the energy of the bound tier's device group.
	BoundEnergy energy.Report
	// DRAMEnergy and DCPMEnergy are the Tier 0 / Tier 2 device groups'
	// energy over the run window, for the Figure 2 (bottom) comparison.
	DRAMEnergy, DCPMEnergy energy.Report
	// NVMCounters sums the media counters of the two DCPM tiers, for
	// placement studies that split traffic between technologies.
	NVMCounters memsim.Counters
	// Copies is the per-tier shuffle-copy ledger: chunk reads the shuffle
	// served by reference (reader co-resident with the writer) versus by
	// copy. Observational only — it never feeds Duration, energy or the
	// media counters.
	Copies [memsim.NumTiers]memsim.CopyCounters
	// Engine is a snapshot of the scheduler's engine-level counters,
	// including the recovery.* family a fault plan drives and the
	// tiering.* gauges when tiering is enabled. Like every other field it
	// is a function of the spec, whatever the worker count. A failed run
	// carries it too. Read-only: copies of a memoised result share the
	// map.
	Engine map[string]int64
	// Tiering summarizes the dynamic tiering engine's activity; zero
	// when the spec leaves tiering disabled.
	Tiering TieringStats
	// Heatmaps is the tiering engine's per-epoch bucketed heat history
	// (one entry per epoch tick), nil when tiering is disabled. Kept out
	// of TieringStats so that struct stays comparable. Read-only, like
	// Engine.
	Heatmaps []tiering.EpochHeatmap
}

// TieringStats is the migration activity of one run.
type TieringStats struct {
	Policy         string
	Epochs         int
	MigratedBlocks int64
	MigratedBytes  int64
	// MigrationNS is the virtual time spent in migration stages.
	MigrationNS float64
}

// InputGroup is what a run's generated input depends on: its workload,
// size, seed and source parallelism, defaults applied. Tier, layout, caps,
// placements, fault plans and tiering leave it alone, so runs that differ
// only in those read the same generated partitions and derived pages.
type InputGroup struct {
	Workload    string
	Size        workloads.Size
	Seed        int64
	Parallelism int
}

// InputGroup returns the input group s reads.
func (s RunSpec) InputGroup() InputGroup {
	s = s.WithDefaults()
	return InputGroup{s.Workload, s.Size, s.Seed, s.Parallelism}
}

// lastInput is Run's slot: the store of the last input group Run read. A
// run of that group again reads the pages the last one kept; a run of
// another group puts a fresh store in the slot and drops the old one, so
// at most one group's pages outlive a Run. Like RunShared's store it is
// host-side only: no RunSpec, Key, RunResult or memo records it.
var lastInput struct {
	mu    sync.Mutex
	group InputGroup
	gen   *rdd.GenStore
}

// checkSlotPages makes the slot's stores checksum their pages (see
// rdd.NewGenStore); a test seam.
var checkSlotPages bool

// slotStore returns the slot's store for group g, replacing the slot's
// store when it holds another group.
func slotStore(g InputGroup) *rdd.GenStore {
	lastInput.mu.Lock()
	defer lastInput.mu.Unlock()
	if lastInput.gen == nil || lastInput.group != g {
		lastInput.group, lastInput.gen = g, rdd.NewGenStore(checkSlotPages)
	}
	return lastInput.gen
}

// Run executes one experiment cell on a fresh simulated cluster. Its
// generated sources read through the slot of the last input group Run
// read (lastInput), so back-to-back runs of one input — a sweep over
// tiers, caps, placements or tiering policies — generate and derive its
// pages once; the result is the one RunShared(spec, nil) returns. Under a
// fault plan whose recovery budget the workload exhausts, the scheduler's
// job abort surfaces here as an ordinary *faults.JobAbortedError — callers
// distinguish "the configuration is invalid" from "the run gave up" with
// errors.As.
func Run(spec RunSpec) (RunResult, error) {
	return RunShared(spec, slotStore(spec.InputGroup()))
}

// RunShared is Run whose generated sources read their partitions, and
// whose derived pages are kept, in gen, a store the other runs of one
// evaluation batch share (see rdd.GenStore); a nil gen gives the
// application a cold store of its own. gen is host-side: the result is
// the one Run returns, and neither RunSpec.Key nor RunResult records it.
func RunShared(spec RunSpec, gen *rdd.GenStore) (result RunResult, err error) {
	spec = spec.WithDefaults()
	w, err := workloads.ByName(spec.Workload)
	if err != nil {
		return RunResult{}, err
	}
	conf := cluster.Conf{
		Executors:          spec.Executors,
		CoresPerExecutor:   spec.CoresPerExecutor,
		Binding:            numa.BindingForTier(spec.Tier),
		DefaultParallelism: spec.Parallelism,
		BandwidthCap:       spec.BandwidthCap,
		Placement:          spec.Placement,
		TierSpecs:          spec.TierSpecs,
		TaskParallelism:    spec.TaskParallelism,
		Faults:             spec.Faults,
		Seed:               spec.Seed,
		Tiering:            spec.Tiering,
		Quota:              spec.Quota,
	}
	if err := conf.Validate(); err != nil {
		return RunResult{}, fmt.Errorf("hibench: %s: %w", spec, err)
	}
	app := cluster.New(conf)
	app.ShareGenerated(gen)
	// The scheduler signals an exhausted recovery budget by panicking
	// with the typed abort, and the block manager signals an exhausted
	// tenant quota the same way from the commit path; convert either into
	// this function's error so the rdd.Driver interface stays panic-free
	// for callers. The partial result keeps the virtual time the doomed
	// job consumed and its engine counters, so admission engines can
	// still account its occupancy window and its work.
	defer func() {
		if r := recover(); r != nil {
			switch typed := r.(type) {
			case *faults.JobAbortedError:
				result = RunResult{Spec: spec, Duration: app.Elapsed(), Engine: app.EngineCounters().Snapshot()}
				err = fmt.Errorf("hibench: %s: %w", spec, typed)
			case *blockmgr.QuotaExceededError:
				result = RunResult{Spec: spec, Duration: app.Elapsed(), Engine: app.EngineCounters().Snapshot()}
				err = fmt.Errorf("hibench: %s: %w", spec, typed)
			default:
				panic(r)
			}
		}
	}()
	summary := w.Run(app, spec.Size)
	res := RunResult{
		Spec:        spec,
		Duration:    app.Elapsed(),
		Metrics:     app.Metrics(),
		Summary:     summary,
		BoundEnergy: app.EnergyReport(spec.Tier),
		DRAMEnergy:  app.EnergyReport(memsim.Tier0),
		DCPMEnergy:  app.EnergyReport(memsim.Tier2),
	}
	res.NVMCounters.Add(app.System().Tier(memsim.Tier2).Counters())
	res.NVMCounters.Add(app.System().Tier(memsim.Tier3).Counters())
	res.Copies = app.System().CopySnapshot()
	res.Engine = app.EngineCounters().Snapshot()
	if eng := app.Tiering(); eng != nil {
		res.Tiering = TieringStats{
			Policy:         eng.PolicyName(),
			Epochs:         eng.Epochs(),
			MigratedBlocks: eng.MigratedBlocks(),
			MigratedBytes:  eng.MigratedBytes(),
			MigrationNS:    eng.MigrationNS(),
		}
		res.Heatmaps = eng.Heatmaps()
	}
	return res, nil
}
