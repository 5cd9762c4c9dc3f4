// Package multitenant promotes the one-job application simulator into a
// long-running multi-job cluster: N tenants submit jobs from a seeded
// workload-mix generator, an admission controller gates entry when DRAM
// would be oversubscribed (queueing with FIFO/fair/weighted scheduling),
// and per-tenant memory quotas are enforced in the block-manager charge
// paths with graceful degradation — a tenant over its DRAM quota spills
// new blocks to DCPM instead of failing, and a typed error reaches the
// submitter only when even the DCPM budget is exhausted. Executor crashes
// mid-contention recover per job through the lineage machinery; other
// tenants' jobs are untouched.
//
// Everything is deterministic: the mix, every admit/queue/reject
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

// AdmissionRejectedError is the typed rejection a submitter sees when its
// job's declared demand can never fit the DRAM budget.
type AdmissionRejectedError struct {
	Tenant   string
	Seq      int
	Workload string
	// Demand is the job's declared DRAM demand; Free and Budget snapshot
	// the admission ledger at rejection time.
	Demand, Free, Budget int64
}

// Error implements error.
func (e *AdmissionRejectedError) Error() string {
	return fmt.Sprintf("multitenant: %s/%d (%s) rejected: demand %d B exceeds the DRAM budget (free %d of %d B)",
		e.Tenant, e.Seq, e.Workload, e.Demand, e.Free, e.Budget)
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
	// Policy orders the admission queue.
	Policy SchedulerPolicy
	// DRAMBudgetBytes is the admission controller's DRAM budget — the
	// bytes of declared demand that may be in flight at once. 0 selects
	// the testbed's Tier 0 capacity; small values force contention.
	DRAMBudgetBytes int64
	// Size is the dataset profile every job runs.
	Size workloads.Size
	// Workloads restricts the generator's catalog; nil/empty selects all
	// seven Table II workloads.
	Workloads []string
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

// Every job arrives uniformly over [0, arrivalWindow) and runs on a
// cluster of executors x coresPerExecutor, small enough that many jobs
// coexist.
const (
	arrivalWindow    = 50 * sim.Millisecond
	executors        = 2
	coresPerExecutor = 2
)

// withDefaults fills the zero-valued knobs.
func (c Conf) withDefaults() Conf {
	if c.Policy == "" {
		c.Policy = FIFO
	}
	if c.DRAMBudgetBytes == 0 {
		c.DRAMBudgetBytes = memsim.DefaultSpecs()[memsim.Tier0].CapacityBytes
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
	if c.DRAMBudgetBytes < 0 {
		return fmt.Errorf("multitenant: negative DRAMBudgetBytes %d", c.DRAMBudgetBytes)
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
