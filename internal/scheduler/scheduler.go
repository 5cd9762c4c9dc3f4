// Package scheduler implements the DAG scheduler: it walks an action's
// lineage graph, splits it into stages at shuffle boundaries, runs map
// stages for unmaterialized shuffle dependencies in topological order, and
// finally runs the result stage — Spark's barrier-between-stages execution
// discipline.
//
// Stage execution is two-phase. Phase 1 computes every task's real data
// concurrently through par.Do on Env.TaskParallelism goroutines, the
// driver's among them: tasks charge into task-local staging inside their
// TaskContext and never touch the simulation kernel or shared stores.
// Phase 2 runs on the driver goroutine after the workers join: staged side
// effects are committed in partition order, injected failures replayed,
// and the per-task cost profiles simulated on the sequential virtual-time
// executor model. Every virtual-time number and counter is therefore
// bit-identical to a fully sequential run while wall-clock scales with the
// worker count.
//
// The scheduler is also the recovery engine behind the deterministic fault
// plans of internal/faults, mirroring Spark's lineage-based fault
// tolerance. Scheduled executor crashes are applied at stage boundaries:
// the crashed executor's block-manager contents are dropped and its map
// outputs deregistered, so lost cache blocks recompute from lineage on
// next access and lost shuffle segments surface as fetch failures
// (*shuffle.SegmentLostError) in reduce tasks. A stage attempt that hits a
// fetch failure commits nothing; its partial work is replayed for
// virtual-time accounting, the parent map stage is resubmitted for exactly
// the lost partitions, and the stage retries — bounded by the plan's
// MaxStageAttempts, beyond which the job aborts with
// *faults.JobAbortedError. Because every retry recomputes from the same
// seeds and commits in the same partition order, a recovered run's results
// are byte-identical to a fault-free run's.
package scheduler

import (
	"fmt"

	"repro/internal/executor"
	"repro/internal/faults"
	"repro/internal/par"
	"repro/internal/rdd"
	"repro/internal/shuffle"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tiering"
	"repro/internal/trace"
)

// Env is the slice of the application the scheduler needs.
type Env interface {
	Kernel() *sim.Kernel
	Pool() *executor.Pool
	ShuffleStore() *shuffle.Store
	Cost() executor.CostModel
	Seed() int64
	// Tracer returns the span recorder; a nil recorder disables tracing.
	Tracer() *trace.Recorder
	// TaskParallelism is the number of worker goroutines computing real
	// task data concurrently during phase 1, passed to par.Do as is
	// (values <= 0 select runtime.GOMAXPROCS(0); 1 is the sequential
	// escape hatch). It moves host time only: nothing the scheduler
	// records depends on it.
	TaskParallelism() int
	// FaultPlan is the application's deterministic fault schedule; nil
	// injects nothing.
	FaultPlan() *faults.Plan
	// Tiering is the application's dynamic block-migration engine; nil
	// disables epoch ticks entirely.
	Tiering() *tiering.Engine
}

// Stats accumulates scheduler-level observables across jobs, feeding the
// system-level metrics of the paper's Figure 5.
type Stats struct {
	Jobs        int
	Stages      int // stage attempts simulated, failed attempts included
	Tasks       int
	CPUNS       float64
	StallNS     float64
	ShuffleRead int64 // bytes fetched by reduce tasks
	MaxSharers  int
	// ExecutorsLost counts the scheduled crashes applied. The other
	// recovery observables are the registry's recovery.* counters.
	ExecutorsLost int
}

// Scheduler owns shuffle materialization state for one application.
type Scheduler struct {
	env  Env
	done map[int]bool // shuffle id -> outputs materialized
	// shuffles remembers each materialized shuffle's dependency so a
	// fetch failure can resubmit its map stage from lineage.
	shuffles map[int]*rdd.ShuffleDep
	// reg counts engine-level events (tasks computed, stage attempts run,
	// recovery actions): virtual facts only, whatever the worker count.
	// Phase-1 workers update it concurrently.
	reg   *telemetry.Registry
	stats Stats
	// crashCursor indexes the next unapplied crash in the fault plan.
	crashCursor int
}

// New builds a scheduler over the environment.
func New(env Env) *Scheduler {
	return &Scheduler{
		env:      env,
		done:     make(map[int]bool),
		shuffles: make(map[int]*rdd.ShuffleDep),
		reg:      telemetry.NewRegistry(),
	}
}

// Stats returns accumulated execution statistics.
func (s *Scheduler) Stats() Stats { return s.stats }

// Counters returns the scheduler's engine-level counter registry.
func (s *Scheduler) Counters() *telemetry.Registry { return s.reg }

// computeAttempt is phase 1 + commit for one stage attempt over the given
// partitions: it builds one TaskContext per partition, runs the task body
// over all of them through par.Do capturing per-task panics (every task's
// outcome is needed to rank fetch failures below bugs), then — if no task
// failed — commits each context's staged side effects in partition order
// and returns the simulation tasks.
//
// A non-fetch task panic is re-raised on the driver goroutine after all
// workers join — deterministically the lowest-partition one when several
// tasks fail — with no partial commits. A fetch failure
// (*shuffle.SegmentLostError) instead returns the lowest-partition error
// together with the attempt's partial cost profiles, again committing
// nothing: the caller charges the wasted work in virtual time and
// resubmits the lost parent outputs.
func (s *Scheduler) computeAttempt(parts []int, body func(ctx *executor.TaskContext, part int)) ([]executor.SimTask, *shuffle.SegmentLostError) {
	n := len(parts)
	ctxs := make([]*executor.TaskContext, n)
	for i, part := range parts {
		ctxs[i] = s.newContext(part)
	}
	panics := make([]any, n)
	s.reg.Add("stages.run", 1)
	par.Do(n, s.env.TaskParallelism(), func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panics[i] = r
			}
		}()
		body(ctxs[i], parts[i])
		s.reg.Add("tasks.computed", 1)
	})

	// Non-fetch panics win over fetch failures: they are bugs (or test
	// probes) that recovery must not mask. Among fetch failures the
	// lowest-partition one is chosen, so recovery is deterministic for
	// any worker count.
	var fetch *shuffle.SegmentLostError
	for _, p := range panics {
		if p == nil {
			continue
		}
		if lost, ok := p.(*shuffle.SegmentLostError); ok {
			if fetch == nil {
				fetch = lost
			}
			continue
		}
		panic(p)
	}
	tasks := make([]executor.SimTask, n)
	for i := range parts {
		if fetch == nil {
			ctxs[i].Commit()
		}
		tasks[i] = executor.SimTask{Profile: ctxs[i].Profile(), ExecID: ctxs[i].ExecID}
	}
	return tasks, fetch
}

// runStage executes one stage to completion through the recovery loop:
// due crashes are applied at the attempt boundary, the attempt is
// computed, and on a fetch failure the attempt's partial work is charged
// in virtual time, the lost parent map outputs are recomputed from
// lineage, and the stage retries — up to the fault plan's stage-attempt
// cap, beyond which the job aborts.
func (s *Scheduler) runStage(name, category string, parts []int, body func(ctx *executor.TaskContext, part int)) {
	k := s.env.Kernel()
	attemptCap := s.env.FaultPlan().StageAttemptCap()
	// simulate charges one attempt's tasks in virtual time under a span.
	simulate := func(span trace.Span, tasks []executor.SimTask) {
		span.Start = k.Now()
		res := executor.SimulateStage(k, s.env.Pool(), tasks, s.env.Cost())
		s.accountStage(res, len(parts))
		span.End, span.Tasks = k.Now(), len(parts)
		s.env.Tracer().Add(span)
	}
	for attempt := 1; ; attempt++ {
		s.applyDueFaults()
		tasks, fetch := s.computeAttempt(parts, body)
		if fetch == nil {
			s.injectFailures(tasks, parts)
			simulate(trace.Span{Name: name, Category: category}, s.speculate(tasks))
			// Epoch tick: stage boundaries are the only points residency
			// may change, so parallel phase-1 compute always reads a
			// frozen placement. A tick that plans no moves costs zero
			// virtual time.
			if eng := s.env.Tiering(); eng != nil {
				eng.Tick()
			}
			return
		}

		// Fetch failed: charge the doomed attempt's partial work (the
		// reduce tasks ran until the missing segment), then recover.
		s.reg.Add("recovery.fetch_failures", 1)
		simulate(trace.Span{
			Name:     fmt.Sprintf("%s — attempt %d fetch failed (%v)", name, attempt, fetch),
			Category: "recovery",
		}, tasks)
		if attempt >= attemptCap {
			s.abortJob(fmt.Sprintf("stage %q exhausted %d attempts: %v", name, attempt, fetch), attempt)
		}
		s.recoverShuffle(fetch.Shuffle)
	}
}

// RunJob executes fn over every partition of final, materializing upstream
// shuffles first, and returns per-partition results in partition order.
func (s *Scheduler) RunJob(final *rdd.Base, fn rdd.ResultFunc) []any {
	s.stats.Jobs++
	s.advance(sim.Duration(s.env.Cost().JobOverheadNS))

	s.visit(final)

	// Result stage: phase-1 compute fills results task-locally (each task
	// writes only its own slice index); par.Do's join in computeAttempt
	// orders those writes before the driver reads them. A retried attempt
	// overwrites with recomputed — identical — values.
	results := make([]any, final.NumParts)
	s.runStage(fmt.Sprintf("result stage (job %d, %s)", s.stats.Jobs, final), "stage",
		allParts(final.NumParts), func(ctx *executor.TaskContext, part int) {
			results[part] = fn(ctx, part)
		})
	return results
}

// visit materializes every shuffle dependency reachable from b.
func (s *Scheduler) visit(b *rdd.Base) {
	if b.Narrow != nil {
		s.visit(b.Narrow)
	}
	for _, d := range b.Shuffles {
		s.ensureShuffle(d)
	}
}

// ensureShuffle runs the map stage for one shuffle dependency unless its
// outputs already exist (shuffle reuse across jobs, like Spark). The
// dependency is remembered so lost outputs can be recomputed from lineage
// after an executor crash.
func (s *Scheduler) ensureShuffle(d *rdd.ShuffleDep) {
	if s.done[d.ShuffleID] {
		return
	}
	s.visit(d.P) // upstream shuffles first
	store := s.env.ShuffleStore()
	store.RegisterShuffle(d.ShuffleID, d.P.NumParts)
	s.shuffles[d.ShuffleID] = d

	before := store.TotalBytes()
	// Map stage: segments are staged per task and land in the store during
	// the partition-ordered commit inside computeAttempt, so the byte delta
	// below observes the full stage's output.
	s.runStage(fmt.Sprintf("map stage (shuffle %d)", d.ShuffleID), "stage",
		allParts(d.P.NumParts), func(ctx *executor.TaskContext, mapPart int) {
			d.WriteMap(ctx, mapPart)
		})
	s.stats.ShuffleRead += store.TotalBytes() - before
	s.done[d.ShuffleID] = true
}

// recoverShuffle resubmits the map stage of one shuffle for exactly its
// lost partitions — Spark's reaction to FetchFailed. The resubmitted map
// tasks recompute from lineage with the same seeds and rewrite their
// segments, clearing the lost marks; if their own parents were lost too,
// the nested runStage recovers them recursively.
func (s *Scheduler) recoverShuffle(shuffleID int) {
	d := s.shuffles[shuffleID]
	if d == nil {
		panic(fmt.Sprintf("scheduler: fetch failure for unknown shuffle %d", shuffleID))
	}
	lost := s.env.ShuffleStore().LostMapParts(shuffleID)
	if len(lost) == 0 {
		return // already recovered on another branch
	}
	s.reg.Add("recovery.stage_resubmissions", 1)
	s.runStage(fmt.Sprintf("map stage (shuffle %d) resubmission — %d lost partitions", shuffleID, len(lost)),
		"recovery", lost, func(ctx *executor.TaskContext, mapPart int) {
			d.WriteMap(ctx, mapPart)
		})
}

// applyDueFaults applies every scheduled executor crash whose virtual time
// has passed. Crashes land at stage-attempt boundaries: the driver learns
// about executor loss asynchronously, like Spark's heartbeat timeout.
func (s *Scheduler) applyDueFaults() {
	plan := s.env.FaultPlan()
	if plan == nil {
		return
	}
	now := s.env.Kernel().Now()
	for s.crashCursor < len(plan.Crashes) && plan.Crashes[s.crashCursor].At <= now {
		c := plan.Crashes[s.crashCursor]
		s.crashCursor++
		s.crashExecutor(c)
	}
}

// crashExecutor applies one executor loss: the executor's block-manager
// contents are dropped (lost cache blocks recompute from lineage on next
// access) and its map outputs deregistered (subsequent fetches fail typed
// and trigger map-stage resubmission). A replaced executor comes back in
// the same slot with a fresh block manager, paying the driver-side launch
// delay plus the startup stage; an unreplaced one is removed from
// scheduling, and losing the last executor aborts the job.
func (s *Scheduler) crashExecutor(c faults.Crash) {
	pool := s.env.Pool()
	k := s.env.Kernel()
	start := k.Now()
	blocks, blockBytes := pool.Executors[c.Exec].Blocks.RemoveAll()
	segs, segBytes := s.env.ShuffleStore().DeregisterExecutor(c.Exec)
	s.stats.ExecutorsLost++
	s.reg.Add("recovery.executor_crashes", 1)
	s.reg.Add("recovery.cache_blocks_lost", int64(blocks))
	s.reg.Add("recovery.cache_bytes_lost", blockBytes)
	s.reg.Add("recovery.map_outputs_lost", int64(segs))
	s.reg.Add("recovery.shuffle_bytes_lost", segBytes)
	if c.Replace {
		fresh := pool.Replace(c.Exec)
		// The replacement's fresh block manager needs the tiering hooks
		// rebound: a new hotness ledger observing it and the dynamic
		// landing tier restored.
		if eng := s.env.Tiering(); eng != nil {
			eng.AttachExecutor(c.Exec)
		}
		s.reg.Add("recovery.executors_replaced", 1)
		s.Launch(fresh)
	} else {
		pool.MarkDead(c.Exec)
	}
	s.env.Tracer().Add(trace.Span{
		Name: fmt.Sprintf("executor %d crash at %v — %d cache blocks, %d map segments lost, replaced=%v",
			c.Exec, c.At, blocks, segs, c.Replace),
		Category: "recovery",
		Start:    start,
		End:      k.Now(),
	})
	if pool.AliveCount() == 0 {
		s.abortJob("all executors lost", s.stats.ExecutorsLost)
	}
}

// Launch brings executors up: a serial driver-side launch delay per
// executor, then one parallel startup stage (fixed CPU plus a sequential
// heap-initialization write to the executor's tier). It is the only place
// an executor's startup moves the clock, at application start and when a
// crashed executor is replaced.
func (s *Scheduler) Launch(execs ...*executor.Executor) {
	cost := s.env.Cost()
	s.advance(sim.Duration(float64(len(execs)) * cost.ExecLaunchSerialNS))
	pool := s.env.Pool()
	tasks := make([]executor.SimTask, len(execs))
	for i, ex := range execs {
		tasks[i] = executor.StartupTask(pool, ex, cost, s.env.ShuffleStore(), s.env.Seed())
	}
	executor.SimulateStage(s.env.Kernel(), pool, tasks, cost)
}

// speculate applies straggler factors and, when the fault plan enables
// speculation, clones each task placed on a straggling executor onto the
// least-loaded fastest live executor. The clone races the original in the
// timing simulation; the loser is killed (Spark's spark.speculation).
// Clones are timing-only: the task's data side effects were already
// committed once, deterministically.
func (s *Scheduler) speculate(tasks []executor.SimTask) []executor.SimTask {
	plan := s.env.FaultPlan()
	for i := range tasks {
		tasks[i].SlowFactor = plan.SlowFactor(tasks[i].ExecID)
	}
	if plan == nil || !plan.Speculation {
		return tasks
	}
	pool := s.env.Pool()
	load := make([]int, pool.Size())
	for _, t := range tasks {
		load[t.ExecID]++
	}
	var clones []executor.SimTask
	for i, t := range tasks {
		if t.SlowFactor < faults.DefaultSpeculationFactor {
			continue
		}
		target := -1
		for id := 0; id < pool.Size(); id++ {
			if !pool.Alive(id) || id == t.ExecID {
				continue
			}
			if target < 0 || better(plan.SlowFactor(id), load[id], id, plan.SlowFactor(target), load[target], target) {
				target = id
			}
		}
		if target < 0 || plan.SlowFactor(target) >= t.SlowFactor {
			continue // nowhere faster to clone onto
		}
		clones = append(clones, executor.SimTask{
			Profile:       t.Profile,
			ExecID:        target,
			SlowFactor:    plan.SlowFactor(target),
			SpeculativeOf: i + 1,
		})
		load[target]++
		s.reg.Add("recovery.speculative_tasks", 1)
	}
	return append(tasks, clones...)
}

// better orders speculation targets by (slow factor, load, slot id).
func better(f1 float64, l1, id1 int, f2 float64, l2, id2 int) bool {
	if f1 != f2 {
		return f1 < f2
	}
	if l1 != l2 {
		return l1 < l2
	}
	return id1 < id2
}

// injectFailures replays failed task attempts: with failure rate f, each
// task independently fails Geometric(f) times before succeeding (Spark
// re-runs the task; its cost is paid again per attempt). The draw is
// seeded per (seed, stage, partition) so runs stay deterministic. A task
// whose every attempt up to the plan's spark.task.maxFailures bound fails
// aborts the job — flaky tasks cannot silently succeed past the cap.
func (s *Scheduler) injectFailures(tasks []executor.SimTask, parts []int) {
	plan := s.env.FaultPlan()
	if plan == nil || plan.TaskFailureRate <= 0 {
		return
	}
	rate, maxFailures := plan.TaskFailureRate, plan.TaskFailureCap()
	for i := range tasks {
		h := faults.TaskHash(s.env.Seed(), s.stats.Stages, parts[i])
		attempts := 1
		for rate > faults.AttemptUniform(h, attempts) {
			if attempts >= maxFailures {
				s.abortJob(fmt.Sprintf("task %d failed %d attempts (spark.task.maxFailures)",
					parts[i], attempts), attempts)
			}
			attempts++
		}
		if attempts == 1 {
			continue
		}
		base := tasks[i].Profile
		for a := 1; a < attempts; a++ {
			tasks[i].Profile.Add(base)
		}
		s.reg.Add("recovery.task_retries", int64(attempts-1))
	}
}

// abortJob gives up on the current job with a typed error: recovery
// budgets are exhausted (or every executor is gone) and rerunning more
// attempts cannot help. Harness entry points recover the panic into an
// ordinary error.
func (s *Scheduler) abortJob(reason string, attempts int) {
	s.reg.Add("recovery.job_aborts", 1)
	panic(&faults.JobAbortedError{Job: s.stats.Jobs, Reason: reason, Attempts: attempts})
}

func (s *Scheduler) newContext(part int) *executor.TaskContext {
	pool := s.env.Pool()
	ex := pool.AssignPartition(part)
	return pool.ConfigureContext(executor.NewPlacedTaskContext(ex.ID, part,
		pool.Tier(), pool.ShuffleTier(), pool.CacheTier(), s.env.Cost(),
		ex.Blocks, s.env.ShuffleStore(), s.env.Seed()))
}

// The quota gauges that sample the tenant's occupancy at the last stage
// boundary; the peak and spill rows beside them are running totals.
const (
	quotaFastUsed = "quota.fast_used_bytes"
	quotaSlowUsed = "quota.slow_used_bytes"
)

// PointInTime reports whether the engine counter name is one of those
// gauges. Summed over runs, such a gauge is a number no moment had.
func PointInTime(name string) bool {
	return name == quotaFastUsed || name == quotaSlowUsed
}

func (s *Scheduler) accountStage(res executor.StageResult, tasks int) {
	s.stats.Stages++
	s.stats.Tasks += tasks
	s.stats.CPUNS += res.CPUNS
	s.stats.StallNS += res.StallNS
	if res.MaxSharers > s.stats.MaxSharers {
		s.stats.MaxSharers = res.MaxSharers
	}
	// Per-tenant quota gauges are re-sampled at every stage boundary —
	// the only points quota usage can change — so the registry tracks the
	// tenant's fast/slow occupancy and spill totals as the job runs.
	if q := s.env.Pool().Quota(); q != nil {
		u := q.Usage()
		s.reg.Set(quotaFastUsed, u.FastUsed)
		s.reg.Set(quotaSlowUsed, u.SlowUsed)
		s.reg.Set("quota.peak_fast_bytes", u.PeakFast)
		s.reg.Set("quota.peak_slow_bytes", u.PeakSlow)
		s.reg.Set("quota.spilled_blocks", u.SpilledBlocks)
		s.reg.Set("quota.spilled_bytes", u.SpilledBytes)
	}
	// SimulateStage leaves the clock at the last task end; account the
	// stage overhead by advancing the clock explicitly.
	s.advance(sim.Duration(s.env.Cost().StageOverheadNS))
}

// advance moves the virtual clock forward by d (fixed overheads).
func (s *Scheduler) advance(d sim.Duration) {
	if d <= 0 {
		return
	}
	k := s.env.Kernel()
	k.RunUntil(k.Now() + d)
}

// allParts enumerates 0..n-1.
func allParts(n int) []int {
	parts := make([]int, n)
	for i := range parts {
		parts[i] = i
	}
	return parts
}
