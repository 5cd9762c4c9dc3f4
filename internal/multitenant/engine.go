package multitenant

import (
	"errors"
	"fmt"

	"repro/internal/blockmgr"
	"repro/internal/faults"
	"repro/internal/hibench"
	"repro/internal/memsim"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tiering"
)

// Job outcomes.
const (
	// OutcomeCompleted is a job that produced its full summary.
	OutcomeCompleted = "completed"
	// OutcomeQuotaExhausted is a job killed by *blockmgr.QuotaExceededError
	// — both tenant budgets full, degradation had nowhere left to spill.
	OutcomeQuotaExhausted = "quota-exhausted"
	// OutcomeAborted is a job whose fault-recovery budget ran out.
	OutcomeAborted = "aborted"
	// OutcomeRejected is a job the admission controller never let in.
	OutcomeRejected = "rejected"
)

// JobResult records one submission's fate.
type JobResult struct {
	Job     Job
	Outcome string
	// Admitted jobs carry the admission decision's timeline.
	Admitted bool
	AdmitAt  sim.Time
	DoneAt   sim.Time
	// Queued reports the job passed through the scheduler queue;
	// QueueWait is the virtual time it spent parked there.
	Queued    bool
	QueueWait sim.Duration
	// Duration is the job's own virtual execution time.
	Duration sim.Time
	// Records is the workload summary's record count (0 for failed jobs).
	Records int
	// SpilledBlocks/SpilledBytes are the quota spills this job added to
	// its tenant's ledger — graceful degradation at work.
	SpilledBlocks, SpilledBytes int64
	// Err is the typed failure for non-completed outcomes
	// (*AdmissionRejectedError, *blockmgr.QuotaExceededError,
	// *faults.JobAbortedError), nil otherwise.
	Err error
}

// MixResult is the full record of one multi-tenant mix run.
type MixResult struct {
	// Conf is the defaulted configuration the run used.
	Conf Conf
	// Jobs holds every submission's fate, in submission order.
	Jobs []JobResult
	// Trace is the deterministic admission/scheduling event log.
	Trace []string
	// Registry aggregates per-tenant counters: each completed job's engine
	// counters merged under "tenant.<name>." plus tenant quota gauges and
	// cluster-wide admission counters.
	Registry *telemetry.Registry
	// Makespan is the virtual time of the last completion event.
	Makespan sim.Time
	// Admission tallies.
	Admitted, Rejected, Completed, Failed, QueuedJobs int
	// SpilledBlocks/SpilledBytes total the graceful-degradation spills
	// across all tenants; RefusedMoves totals quota-refused migrations.
	SpilledBlocks, SpilledBytes int64
	RefusedMoves                int64
}

type jobState struct {
	job        Job
	idx        int // index into MixResult.Jobs
	enqueuedAt sim.Time
	reserved   int64
	holdings   blockmgr.JobHoldings
}

// engine is the single-goroutine admission controller. Arrivals and
// completions are events on a sim.Kernel, which fires ties in scheduling
// order. Jobs execute one at a time on the wall clock (each hibench.Run
// is itself internally parallel but returns before the next event fires)
// while overlapping in virtual time through reserve-at-admit /
// release-at-completion events — so every decision is deterministic for
// any worker count.
type engine struct {
	conf     Conf
	quotas   []*blockmgr.TenantQuota
	admitted []int // per-tenant admitted count, drives Fair/Weighted
	capacity *memsim.CapacityLedger
	kern     *sim.Kernel
	err      error       // the first step error; later events do nothing
	queue    []*jobState // in enqueue order
	running  int
	reg      *telemetry.Registry
	results  []JobResult
	trace    []string
}

// Run generates the seeded workload mix and plays it through the
// admission controller: every job is admitted (reserving its declared
// demand against the DRAM budget), queued, or rejected with a typed error; admitted jobs run on a fresh simulated
// cluster under their tenant's shared quota and complete at their
// virtual end time, releasing capacity and draining the queue. The
// returned MixResult — trace included — is byte-identical for a given
// conf across task-parallelism settings.
func Run(c Conf) (*MixResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c = c.withDefaults()
	mix := GenerateMix(c)

	e := &engine{
		conf:     c,
		quotas:   make([]*blockmgr.TenantQuota, len(c.Tenants)),
		admitted: make([]int, len(c.Tenants)),
		capacity: memsim.NewCapacityLedger(c.DRAMBudgetBytes),
		kern:     sim.NewKernel(),
		reg:      telemetry.NewRegistry(),
		results:  make([]JobResult, len(mix)),
	}
	for i, t := range c.Tenants {
		e.quotas[i] = &blockmgr.TenantQuota{
			Tenant: t.Name, Fast: memsim.Tier0, Slow: memsim.Tier2,
			FastBudgetBytes: t.FastQuotaBytes, SlowBudgetBytes: t.SlowQuotaBytes,
		}
	}
	for i := range mix {
		e.results[i] = JobResult{Job: mix[i], Outcome: OutcomeRejected}
		e.at(mix[i].Arrival, e.arrive, &jobState{job: mix[i], idx: i})
	}
	makespan := e.kern.Run()
	if e.err != nil {
		return nil, e.err
	}

	res := &MixResult{
		Conf: c, Jobs: e.results, Trace: e.trace,
		Registry: e.reg, Makespan: makespan,
	}
	e.finish(res)
	return res, nil
}

// at schedules step(js) at virtual time t; once a step has failed, no
// later step runs.
func (e *engine) at(t sim.Time, step func(*jobState) error, js *jobState) {
	e.kern.At(t, func(sim.Time) {
		if e.err == nil {
			e.err = step(js)
		}
	})
}

func (e *engine) tracef(format string, args ...interface{}) {
	e.trace = append(e.trace, fmt.Sprintf("t=%012dns ", int64(e.kern.Now()))+fmt.Sprintf(format, args...))
}

// arrive handles a submission.
func (e *engine) arrive(js *jobState) error {
	j := js.job
	e.tracef("arrive %s demand=%dB free=%dB", j, j.DemandBytes, e.capacity.Free())
	if j.DemandBytes > e.conf.DRAMBudgetBytes {
		e.reject(js)
		return nil
	}
	// An arriving job must not jump a non-empty queue under FIFO;
	// enqueue-then-drain keeps head-of-line semantics and lets
	// Fair/Weighted pick freely.
	if e.fits(js) && len(e.queue) == 0 {
		return e.admit(js)
	}
	return e.enqueue(js)
}

func (e *engine) enqueue(js *jobState) error {
	js.enqueuedAt = e.kern.Now()
	e.queue = append(e.queue, js)
	e.results[js.idx].Queued = true
	e.tracef("queue  %s depth=%d", js.job, len(e.queue))
	return e.drain()
}

func (e *engine) reject(js *jobState) {
	j := js.job
	r := &e.results[js.idx]
	r.Outcome = OutcomeRejected
	r.Err = &AdmissionRejectedError{
		Tenant: j.Tenant, Seq: j.Seq, Workload: j.Workload,
		Demand: j.DemandBytes, Free: e.capacity.Free(), Budget: e.conf.DRAMBudgetBytes,
	}
	r.DoneAt = e.kern.Now()
	e.tracef("reject %s: demand exceeds the DRAM budget", j)
}

// fits reports whether a job's declared demand fits the free budget now.
func (e *engine) fits(js *jobState) bool {
	return js.job.DemandBytes <= e.capacity.Free()
}

// drain admits queued jobs per the scheduler policy until nothing
// admissible remains: FIFO stops at the first head that does not fit
// (head-of-line blocking); Fair picks the fitting job whose tenant has
// the fewest admissions; Weighted minimizes admissions/weight. Ties
// resolve in enqueue order.
func (e *engine) drain() error {
	for len(e.queue) > 0 {
		pick := -1
		switch e.conf.Policy {
		case FIFO:
			if e.fits(e.queue[0]) {
				pick = 0
			}
		case Fair, Weighted:
			var best float64
			for i, js := range e.queue {
				if !e.fits(js) {
					continue
				}
				score := float64(e.admitted[js.job.TenantIdx])
				if e.conf.Policy == Weighted {
					score /= float64(e.conf.Tenants[js.job.TenantIdx].Weight)
				}
				if pick == -1 || score < best {
					pick, best = i, score
				}
			}
		}
		if pick < 0 {
			return nil
		}
		js := e.queue[pick]
		e.queue = append(e.queue[:pick], e.queue[pick+1:]...)
		e.results[js.idx].QueueWait = e.kern.Now() - js.enqueuedAt
		if err := e.admit(js); err != nil {
			return err
		}
	}
	return nil
}

// admit reserves the job's demand, runs it on a fresh cluster under the
// tenant's shared quota, classifies the outcome and schedules the
// virtual completion event.
func (e *engine) admit(js *jobState) error {
	j := js.job
	if err := e.capacity.Reserve(j.DemandBytes); err != nil {
		return fmt.Errorf("multitenant: admitting %s: %w", j, err)
	}
	js.reserved = j.DemandBytes
	e.running++
	e.admitted[j.TenantIdx]++
	q := e.quotas[j.TenantIdx]
	e.tracef("admit  %s demand=%dB free=%dB running=%d",
		j, j.DemandBytes, e.capacity.Free(), e.running)

	spec := hibench.RunSpec{
		Workload: j.Workload, Size: j.Size, Tier: memsim.Tier0,
		Executors: executors, CoresPerExecutor: coresPerExecutor,
		TaskParallelism: e.conf.TaskParallelism,
		Seed:            j.Seed,
		Faults:          j.Faults,
		Quota:           q,
	}
	if e.conf.Tiering != "" {
		tcfg := tiering.DefaultConfig(e.conf.Tiering)
		if tcfg.Dynamic() {
			// Carve the tenant's free fast quota evenly across the job's
			// executors so the migration engine targets what the quota
			// will actually admit; floor at a page so a full quota still
			// validates (the job then runs all-spill with an engine that
			// can only demote).
			fb := q.FastFree() / executors
			if fb < 4<<10 {
				fb = 4 << 10
			}
			tcfg.FastBudgetBytes = fb
		}
		spec.Tiering = &tcfg
	}

	before := q.Usage()
	q.BeginJob()
	res, runErr := hibench.Run(spec)
	js.holdings = q.EndJob()
	after := q.Usage()

	r := &e.results[js.idx]
	r.Admitted = true
	r.AdmitAt = e.kern.Now()
	r.Duration = res.Duration
	r.Records = res.Summary.Records
	r.SpilledBlocks = after.SpilledBlocks - before.SpilledBlocks
	r.SpilledBytes = after.SpilledBytes - before.SpilledBytes
	switch {
	case runErr == nil:
		r.Outcome = OutcomeCompleted
	default:
		var quotaErr *blockmgr.QuotaExceededError
		var abortErr *faults.JobAbortedError
		switch {
		case errors.As(runErr, &quotaErr):
			r.Outcome = OutcomeQuotaExhausted
			r.Err = quotaErr
		case errors.As(runErr, &abortErr):
			r.Outcome = OutcomeAborted
			r.Err = abortErr
		default:
			// Configuration errors are programming errors of the engine,
			// not tenant outcomes.
			return fmt.Errorf("multitenant: running %s: %w", j, runErr)
		}
	}
	// Fold the job's engine counters into its tenant's totals. Addition
	// commutes, so map order does not reach the registry. A gauge that
	// samples one job at one moment is left out: summed over the
	// tenant's jobs it is a number no moment had, and the tenant's
	// quota.peak_* and quota.end_* rows carry its occupancy instead.
	for name, v := range res.Engine {
		if !pointInTime(name) {
			e.reg.Add("tenant."+j.Tenant+"."+name, v)
		}
	}
	e.at(e.kern.Now()+res.Duration, e.complete, js)
	return nil
}

// pointInTime reports whether an engine counter is a point-in-time gauge;
// the packages that emit the gauges decide which ones are.
func pointInTime(name string) bool {
	return scheduler.PointInTime(name) || tiering.PointInTime(name)
}

// complete releases the job's DRAM reservation and quota holdings at its
// virtual end time, then drains the queue.
func (e *engine) complete(js *jobState) error {
	j := js.job
	e.capacity.Release(js.reserved)
	e.quotas[j.TenantIdx].ReleaseHoldings(js.holdings)
	e.running--
	r := &e.results[js.idx]
	r.DoneAt = e.kern.Now()
	e.tracef("done   %s outcome=%s dur=%dns spilled=%dB running=%d",
		j, r.Outcome, int64(r.Duration), r.SpilledBytes, e.running)
	return e.drain()
}

// finish publishes the end-of-run gauges and totals the tallies.
func (e *engine) finish(res *MixResult) {
	for i, t := range e.conf.Tenants {
		u := e.quotas[i].Usage()
		prefix := "tenant." + t.Name + "."
		e.reg.Set(prefix+"quota.peak_fast_bytes", u.PeakFast)
		e.reg.Set(prefix+"quota.peak_slow_bytes", u.PeakSlow)
		e.reg.Set(prefix+"quota.spilled_blocks", u.SpilledBlocks)
		e.reg.Set(prefix+"quota.spilled_bytes", u.SpilledBytes)
		// End-of-run residuals must be zero: every admitted job's holdings
		// were released at its completion event. A nonzero value here is a
		// cross-tenant ledger bleed — the chaos harness asserts on it.
		e.reg.Set(prefix+"quota.end_fast_bytes", u.FastUsed)
		e.reg.Set(prefix+"quota.end_slow_bytes", u.SlowUsed)
		e.reg.Set(prefix+"admitted_jobs", int64(e.admitted[i]))
		res.SpilledBlocks += u.SpilledBlocks
		res.SpilledBytes += u.SpilledBytes
		res.RefusedMoves += e.reg.Get(prefix + "tiering.refused_moves")
	}
	for i := range res.Jobs {
		r := &res.Jobs[i]
		switch r.Outcome {
		case OutcomeCompleted:
			res.Admitted++
			res.Completed++
		case OutcomeQuotaExhausted, OutcomeAborted:
			res.Admitted++
			res.Failed++
		case OutcomeRejected:
			res.Rejected++
		}
		if r.Queued {
			res.QueuedJobs++
		}
	}
	e.reg.Set("admission.admitted", int64(res.Admitted))
	e.reg.Set("admission.rejected", int64(res.Rejected))
	e.reg.Set("admission.completed", int64(res.Completed))
	e.reg.Set("admission.failed", int64(res.Failed))
}
