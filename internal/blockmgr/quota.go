package blockmgr

import (
	"fmt"

	"repro/internal/memsim"
)

// QuotaExceededError is the typed graceful-degradation failure: a tenant's
// block could not be placed because the fast-tier quota is exhausted AND
// the slow-tier (DCPM) quota is exhausted too. It surfaces to the
// submitting driver only at that point — a tenant merely over its fast
// quota degrades by spilling new blocks to the slow tier instead of
// failing. The manager panics with it from the partition-ordered commit
// path; harness entry points (hibench.Run) recover it into an ordinary
// error, exactly like *faults.JobAbortedError.
type QuotaExceededError struct {
	// Tenant names the quota's owner.
	Tenant string
	// Block and Requested identify the placement that failed.
	Block     BlockID
	Requested int64
	// FastUsed/FastBudget and SlowUsed/SlowBudget snapshot both exhausted
	// ledgers at failure time.
	FastUsed, FastBudget int64
	SlowUsed, SlowBudget int64
}

// Error implements error.
func (e *QuotaExceededError) Error() string {
	return fmt.Sprintf("blockmgr: tenant %q quota exceeded placing %s (%d B): fast %d/%d B, slow %d/%d B",
		e.Tenant, e.Block, e.Requested, e.FastUsed, e.FastBudget, e.SlowUsed, e.SlowBudget)
}

// JobHoldings is the net quota usage a job session accumulated: the bytes
// its blocks still hold on the fast and slow tiers when the session ends.
// The multitenant engine releases a job's holdings at its virtual-time
// completion event, long after the job's App (and its block managers) has
// been torn down on the wall clock.
type JobHoldings struct {
	Fast, Slow int64
}

// TenantQuota is one tenant's two-tier memory budget, shared by every job
// (every cluster.App) the tenant runs. Placement charges are enforced in
// the block manager's Put path with graceful degradation: a block that no
// longer fits the fast-tier budget spills to the slow tier; only when the
// slow budget is exhausted too does placement fail with a typed
// *QuotaExceededError.
//
// Concurrency: all mutations happen on the driver goroutine — block puts
// and removals during the partition-ordered commit, migrations at epoch
// ticks, holdings releases in the multitenant admission engine. Phase-1
// task workers only read (PlannedLanding via the charge path), and the
// usage they read is frozen for the whole stage, so placement charges are
// byte-identical for any worker count.
type TenantQuota struct {
	// Tenant names the owner (for errors and gauges).
	Tenant string
	// Fast and Slow are the two tiers the budgets meter — conventionally
	// DRAM (Tier 0) and local DCPM (Tier 2). Blocks placed on any other
	// tier are not metered.
	Fast memsim.TierID
	Slow memsim.TierID
	// FastBudgetBytes bounds the tenant's resident bytes on Fast (> 0).
	FastBudgetBytes int64
	// SlowBudgetBytes bounds the tenant's resident bytes on Slow; 0 means
	// unbounded (degradation never fails).
	SlowBudgetBytes int64

	fastUsed, slowUsed int64
	peakFast, peakSlow int64
	spilledBlocks      int64
	spilledBytes       int64

	// jobFast/jobSlow attribute net placements to the active job session
	// (BeginJob/EndJob); sessions never nest because the multitenant
	// engine runs admitted jobs one at a time on the wall clock.
	jobFast, jobSlow int64
	inJob            bool
}

// Validate rejects inconsistent quota configurations.
func (q *TenantQuota) Validate() error {
	if q == nil {
		return nil
	}
	switch {
	case q.Tenant == "":
		return fmt.Errorf("blockmgr: quota with empty tenant name")
	case !q.Fast.Valid():
		return fmt.Errorf("blockmgr: tenant %q quota has invalid fast tier %d", q.Tenant, q.Fast)
	case !q.Slow.Valid():
		return fmt.Errorf("blockmgr: tenant %q quota has invalid slow tier %d", q.Tenant, q.Slow)
	case q.Fast == q.Slow:
		return fmt.Errorf("blockmgr: tenant %q quota fast and slow tier are both %s", q.Tenant, q.Fast)
	case q.FastBudgetBytes <= 0:
		return fmt.Errorf("blockmgr: tenant %q quota needs FastBudgetBytes > 0, got %d", q.Tenant, q.FastBudgetBytes)
	case q.SlowBudgetBytes < 0:
		return fmt.Errorf("blockmgr: tenant %q quota has negative SlowBudgetBytes %d", q.Tenant, q.SlowBudgetBytes)
	}
	return nil
}

// FastUsed returns the tenant's resident bytes on the fast tier.
func (q *TenantQuota) FastUsed() int64 { return q.fastUsed }

// SlowUsed returns the tenant's resident bytes on the slow tier.
func (q *TenantQuota) SlowUsed() int64 { return q.slowUsed }

// FastFree returns the unused fast-tier budget.
func (q *TenantQuota) FastFree() int64 {
	if free := q.FastBudgetBytes - q.fastUsed; free > 0 {
		return free
	}
	return 0
}

// QuotaUsage is a snapshot of a quota's accounting, for gauge publishing.
type QuotaUsage struct {
	FastUsed, SlowUsed int64
	PeakFast, PeakSlow int64
	SpilledBlocks      int64
	SpilledBytes       int64
}

// Usage snapshots the quota's current accounting.
func (q *TenantQuota) Usage() QuotaUsage {
	return QuotaUsage{
		FastUsed: q.fastUsed, SlowUsed: q.slowUsed,
		PeakFast: q.peakFast, PeakSlow: q.peakSlow,
		SpilledBlocks: q.spilledBlocks, SpilledBytes: q.spilledBytes,
	}
}

// PlannedLanding is the tier a new block would be placed on right now:
// the fast tier while it has any headroom at all, the slow tier
// otherwise. Read-only — the quota-aware landing-tier resolver the
// sizeless charge path consults during phase-1, against usage frozen at
// stage start.
func (q *TenantQuota) PlannedLanding() memsim.TierID {
	if q.fastUsed < q.FastBudgetBytes {
		return q.Fast
	}
	return q.Slow
}

// Place charges a new block against the budgets and returns the tier it
// must be resident on: the fast tier while the fast budget holds it, the
// slow tier (counted as a spill) while the slow budget holds it, and a
// *QuotaExceededError when both are exhausted. Driver goroutine only.
func (q *TenantQuota) Place(id BlockID, bytes int64) (memsim.TierID, error) {
	if q.fastUsed+bytes <= q.FastBudgetBytes {
		q.charge(q.Fast, bytes)
		return q.Fast, nil
	}
	if q.SlowBudgetBytes > 0 && q.slowUsed+bytes > q.SlowBudgetBytes {
		return 0, &QuotaExceededError{
			Tenant: q.Tenant, Block: id, Requested: bytes,
			FastUsed: q.fastUsed, FastBudget: q.FastBudgetBytes,
			SlowUsed: q.slowUsed, SlowBudget: q.SlowBudgetBytes,
		}
	}
	q.charge(q.Slow, bytes)
	q.spilledBlocks++
	q.spilledBytes += bytes
	return q.Slow, nil
}

// Release returns a removed or evicted block's bytes to the budget of the
// tier it was resident on. Driver goroutine only.
func (q *TenantQuota) Release(tier memsim.TierID, bytes int64) {
	q.charge(tier, -bytes)
}

// CanMove reports whether a migration of the given size fits the
// destination tier's budget. The tiering engine filters its plans through
// this before charging any movement, so quota pressure shows up as
// refused migrations, never as a mid-migration failure.
func (q *TenantQuota) CanMove(from, to memsim.TierID, bytes int64) bool {
	switch to {
	case q.Fast:
		return q.fastUsed+bytes <= q.FastBudgetBytes
	case q.Slow:
		return q.SlowBudgetBytes == 0 || q.slowUsed+bytes <= q.SlowBudgetBytes
	}
	return true
}

// Move rebinds a block's bytes from one tier's budget to another's,
// reporting whether the destination budget admitted it. Driver goroutine
// only (the tiering engine's residency flip).
func (q *TenantQuota) Move(from, to memsim.TierID, bytes int64) bool {
	if !q.CanMove(from, to, bytes) {
		return false
	}
	q.charge(from, -bytes)
	q.charge(to, bytes)
	return true
}

// charge adjusts one tier's usage; tiers outside the metered pair are
// ignored. Negative balances panic — they mean a release was not matched
// by a placement, i.e. the ledger leaked across tenants.
func (q *TenantQuota) charge(tier memsim.TierID, delta int64) {
	switch tier {
	case q.Fast:
		q.fastUsed += delta
		q.jobFast += delta
		if q.fastUsed < 0 {
			panic(fmt.Sprintf("blockmgr: tenant %q fast quota underflow (%d B)", q.Tenant, q.fastUsed))
		}
		if q.fastUsed > q.peakFast {
			q.peakFast = q.fastUsed
		}
	case q.Slow:
		q.slowUsed += delta
		q.jobSlow += delta
		if q.slowUsed < 0 {
			panic(fmt.Sprintf("blockmgr: tenant %q slow quota underflow (%d B)", q.Tenant, q.slowUsed))
		}
		if q.slowUsed > q.peakSlow {
			q.peakSlow = q.slowUsed
		}
	}
}

// BeginJob opens a job session: subsequent charges are attributed to the
// job until EndJob. Sessions never nest.
func (q *TenantQuota) BeginJob() {
	if q.inJob {
		panic(fmt.Sprintf("blockmgr: tenant %q nested quota job session", q.Tenant))
	}
	q.inJob = true
	q.jobFast, q.jobSlow = 0, 0
}

// EndJob closes the session and returns the job's net holdings — the
// bytes its still-resident blocks hold on each tier. The caller releases
// them via ReleaseHoldings when the job's virtual completion time passes.
func (q *TenantQuota) EndJob() JobHoldings {
	if !q.inJob {
		panic(fmt.Sprintf("blockmgr: tenant %q EndJob without BeginJob", q.Tenant))
	}
	q.inJob = false
	return JobHoldings{Fast: q.jobFast, Slow: q.jobSlow}
}

// ReleaseHoldings returns a completed job's net holdings to the budgets —
// the virtual-time analogue of the job's App tearing down its block
// managers. Driver goroutine only.
func (q *TenantQuota) ReleaseHoldings(h JobHoldings) {
	q.charge(q.Fast, -h.Fast)
	q.charge(q.Slow, -h.Slow)
}
