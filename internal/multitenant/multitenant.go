// Package multitenant promotes the one-job application simulator into a
// long-running multi-job cluster: N tenants submit jobs from a seeded
// workload-mix generator, an admission controller gates entry when DRAM
// would be oversubscribed (queueing with FIFO/fair/weighted scheduling,
// or bounded virtual-time retry/backoff), and per-tenant memory quotas
// are enforced in the block-manager charge paths with graceful
// degradation — a tenant over its DRAM quota spills new blocks to DCPM
// instead of failing, and a typed error reaches the submitter only when
// even the DCPM budget is exhausted. Executor crashes mid-contention
// recover per job through the lineage machinery; other tenants' jobs are
// untouched.
//
// Everything is deterministic: the mix, every admit/queue/retry/reject
// decision and the full trace are pure functions of the configuration
// and seed, and each job's virtual duration is bit-identical for any
// phase-1 worker count — so the whole multi-job trace is too.
package multitenant

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/tiering"
	"repro/internal/workloads"
)

// SchedulerPolicy orders the admission queue.
type SchedulerPolicy string

const (
	// FIFO admits strictly in arrival order; a head-of-line job that
	// does not fit blocks the queue until capacity frees up.
	FIFO SchedulerPolicy = "fifo"
	// Fair picks, among queued jobs that fit, the tenant with the fewest
	// admitted jobs so far (ties in arrival order).
	Fair SchedulerPolicy = "fair"
	// Weighted generalizes Fair: it picks the tenant minimizing
	// admitted/weight, so a weight-2 tenant is served twice as often.
	Weighted SchedulerPolicy = "weighted"
)

// AllPolicies lists the scheduler policies in sweep order.
func AllPolicies() []SchedulerPolicy { return []SchedulerPolicy{FIFO, Fair, Weighted} }

// Valid reports whether the policy is defined.
func (p SchedulerPolicy) Valid() bool {
	switch p {
	case FIFO, Fair, Weighted:
		return true
	}
	return false
}

// AdmissionMode selects what happens when a job does not fit at arrival.
type AdmissionMode string

const (
	// Queue parks the job in the scheduler queue; completions drain it.
	Queue AdmissionMode = "queue"
	// Retry bounces the job back to the submitter, which retries with
	// exponential virtual-time backoff up to MaxRetries before the typed
	// rejection surfaces.
	Retry AdmissionMode = "retry"
)

// Valid reports whether the mode is defined.
func (m AdmissionMode) Valid() bool { return m == Queue || m == Retry }

// AdmissionRejectedError is the typed rejection a submitter sees when its
// job cannot be admitted: the declared demand can never fit the DRAM
// budget, or the retry budget is exhausted while the cluster stays full.
type AdmissionRejectedError struct {
	Tenant   string
	Seq      int
	Workload string
	// Demand is the job's declared DRAM demand; Free and Budget snapshot
	// the admission ledger at rejection time.
	Demand, Free, Budget int64
	// Retries is how many backoff rounds were spent (0 for a job whose
	// demand exceeds the whole budget).
	Retries int
	Reason  string
}

// Error implements error.
func (e *AdmissionRejectedError) Error() string {
	return fmt.Sprintf("multitenant: %s/%d (%s) rejected after %d retries: %s (demand %d B, free %d of %d B)",
		e.Tenant, e.Seq, e.Workload, e.Retries, e.Reason, e.Demand, e.Free, e.Budget)
}

// TenantSpec describes one tenant of the mix.
type TenantSpec struct {
	// Name labels the tenant in traces, gauges and errors.
	Name string
	// Weight biases the Weighted scheduler (>= 1); ignored otherwise.
	Weight int
	// Jobs is how many jobs the tenant submits.
	Jobs int
	// FastQuotaBytes bounds the tenant's resident cache bytes on the
	// fast (DRAM) tier across all of its concurrent jobs.
	FastQuotaBytes int64
	// SlowQuotaBytes bounds the spill (DCPM) tier; 0 = unbounded, so
	// degradation never fails.
	SlowQuotaBytes int64
}

// Conf parameterizes one multi-tenant mix run.
type Conf struct {
	// Tenants are the submitting tenants (at least one, unique names).
	Tenants []TenantSpec
	// Policy orders the admission queue (Queue mode).
	Policy SchedulerPolicy
	// Admission selects queueing or bounded retry.
	Admission AdmissionMode
	// MaxRetries bounds Retry-mode backoff rounds; 0 selects 4.
	MaxRetries int
	// BackoffBase is the first retry delay; doubles per round. 0 selects
	// 2ms of virtual time.
	BackoffBase sim.Duration
	// BackoffCap clamps the exponential backoff; 0 selects 32x the base.
	BackoffCap sim.Duration
	// DRAMBudgetBytes is the admission controller's DRAM budget — the
	// bytes of declared demand that may be in flight at once. 0 selects
	// the testbed's Tier 0 capacity; small values force contention.
	DRAMBudgetBytes int64
	// ArrivalWindow spreads arrivals uniformly over [0, window); 0
	// selects 50ms of virtual time.
	ArrivalWindow sim.Duration
	// Size is the dataset profile every job runs.
	Size workloads.Size
	// Workloads restricts the generator's catalog; nil/empty selects all
	// seven Table II workloads.
	Workloads []string
	// Executors and CoresPerExecutor shape each job's cluster; zero
	// selects 2 executors x 4 cores (small enough that many jobs
	// coexist).
	Executors        int
	CoresPerExecutor int
	// TaskParallelism bounds each job's phase-1 compute workers; zero
	// defers to GOMAXPROCS. Virtual time is identical either way.
	TaskParallelism int
	// Tiering enables the per-job dynamic migration engine with this
	// policy; "" disables tiering. Dynamic policies get a per-executor
	// fast budget carved from the tenant's free fast quota.
	Tiering tiering.PolicyKind
	// Seed drives the mix generator and every per-job seed.
	Seed int64
	// Faults, when set, supplies a deterministic per-job fault plan (the
	// chaos harness injects crashes mid-contention through this); nil
	// injects nothing. The plan is validated per job by cluster.Conf.
	Faults func(tenant, seq int) *faults.Plan
}

// Defaults for the zero-valued knobs.
const (
	DefaultMaxRetries  = 4
	DefaultBackoffBase = 2 * sim.Millisecond
	DefaultExecutors   = 2
	DefaultCores       = 4
)

// DefaultArrivalWindow is the default arrival spread.
const DefaultArrivalWindow = 50 * sim.Millisecond

// withDefaults fills the zero-valued knobs.
func (c Conf) withDefaults() Conf {
	if c.Policy == "" {
		c.Policy = FIFO
	}
	if c.Admission == "" {
		c.Admission = Queue
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = DefaultMaxRetries
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = DefaultBackoffBase
	}
	if c.BackoffCap == 0 {
		c.BackoffCap = 32 * c.BackoffBase
	}
	if c.DRAMBudgetBytes == 0 {
		c.DRAMBudgetBytes = memsim.DefaultSpecs()[memsim.Tier0].CapacityBytes
	}
	if c.ArrivalWindow == 0 {
		c.ArrivalWindow = DefaultArrivalWindow
	}
	if c.Executors == 0 {
		c.Executors = DefaultExecutors
	}
	if c.CoresPerExecutor == 0 {
		c.CoresPerExecutor = DefaultCores
	}
	if len(c.Workloads) == 0 {
		c.Workloads = workloads.Names()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Validate rejects inconsistent configurations with stable messages
// (table-tested); it checks the raw conf, before defaulting.
func (c Conf) Validate() error {
	if len(c.Tenants) == 0 {
		return fmt.Errorf("multitenant: no tenants")
	}
	seen := make(map[string]bool, len(c.Tenants))
	for i, t := range c.Tenants {
		switch {
		case t.Name == "":
			return fmt.Errorf("multitenant: tenant %d has no name", i)
		case seen[t.Name]:
			return fmt.Errorf("multitenant: duplicate tenant name %q", t.Name)
		case t.Jobs <= 0:
			return fmt.Errorf("multitenant: tenant %q submits %d jobs", t.Name, t.Jobs)
		case t.FastQuotaBytes <= 0:
			return fmt.Errorf("multitenant: tenant %q needs FastQuotaBytes > 0, got %d", t.Name, t.FastQuotaBytes)
		case t.SlowQuotaBytes < 0:
			return fmt.Errorf("multitenant: tenant %q has negative SlowQuotaBytes %d", t.Name, t.SlowQuotaBytes)
		case t.Weight < 0:
			return fmt.Errorf("multitenant: tenant %q has negative weight %d", t.Name, t.Weight)
		}
		seen[t.Name] = true
	}
	if c.Policy != "" && !c.Policy.Valid() {
		return fmt.Errorf("multitenant: unknown scheduler policy %q", c.Policy)
	}
	if c.Policy == Weighted {
		for _, t := range c.Tenants {
			if t.Weight <= 0 {
				return fmt.Errorf("multitenant: weighted policy needs positive weights, tenant %q has %d", t.Name, t.Weight)
			}
		}
	}
	if c.Admission != "" && !c.Admission.Valid() {
		return fmt.Errorf("multitenant: unknown admission mode %q", c.Admission)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("multitenant: negative MaxRetries %d", c.MaxRetries)
	}
	if c.BackoffBase < 0 {
		return fmt.Errorf("multitenant: negative BackoffBase %v", c.BackoffBase)
	}
	if c.BackoffCap < 0 {
		return fmt.Errorf("multitenant: negative BackoffCap %v", c.BackoffCap)
	}
	if c.BackoffBase > 0 && c.BackoffCap > 0 && c.BackoffCap < c.BackoffBase {
		return fmt.Errorf("multitenant: BackoffCap %v below BackoffBase %v", c.BackoffCap, c.BackoffBase)
	}
	if c.DRAMBudgetBytes < 0 {
		return fmt.Errorf("multitenant: negative DRAMBudgetBytes %d", c.DRAMBudgetBytes)
	}
	if c.ArrivalWindow < 0 {
		return fmt.Errorf("multitenant: negative ArrivalWindow %v", c.ArrivalWindow)
	}
	if c.Executors < 0 || c.CoresPerExecutor < 0 {
		return fmt.Errorf("multitenant: negative executor layout %dx%d", c.Executors, c.CoresPerExecutor)
	}
	if c.TaskParallelism < 0 {
		return fmt.Errorf("multitenant: negative TaskParallelism %d", c.TaskParallelism)
	}
	if c.Size < workloads.Tiny || c.Size >= workloads.NumSizes {
		return fmt.Errorf("multitenant: invalid size %d", int(c.Size))
	}
	if c.Tiering != "" && !c.Tiering.Valid() {
		return fmt.Errorf("multitenant: unknown tiering policy %q", c.Tiering)
	}
	for _, name := range c.Workloads {
		if _, err := workloads.ByName(name); err != nil {
			return fmt.Errorf("multitenant: %w", err)
		}
	}
	return nil
}
