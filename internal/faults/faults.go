// Package faults defines the deterministic failure domain of a simulated
// application: seeded schedules of executor crashes at virtual times,
// per-task failure rates, straggler (slow-executor) multipliers and the
// retry bounds that govern recovery. A Plan is pure data — the DAG
// scheduler interprets it at stage boundaries — and every random draw
// goes through the same splitmix-style hashing the engine already uses,
// so a plan's effects are bit-identical for any phase-1 worker count.
//
// The recovery semantics the plan drives mirror Spark's lineage-based
// fault tolerance (Zaharia et al., NSDI 2012): a crashed executor loses
// its block-manager contents and its map outputs; lost cache blocks are
// recomputed from lineage on next access; lost map outputs surface as
// FetchFailed on the reduce side and trigger resubmission of the parent
// map stage for exactly the lost partitions; a stage or task that
// exhausts its attempt budget aborts the job with a typed error instead
// of returning wrong results.
package faults

import (
	"fmt"

	"repro/internal/sim"
)

// Defaults for the retry bounds, mirroring spark.task.maxFailures and
// spark.stage.maxConsecutiveAttempts, and the straggler factor at which
// speculation clones a task (spark.speculation.multiplier).
const (
	DefaultMaxTaskFailures   = 4
	DefaultMaxStageAttempts  = 4
	DefaultSpeculationFactor = 1.5
)

// maxStragglerFactor bounds a straggler's slowdown far beyond any real
// straggler and far below where a large run's inflated task times would
// overflow the virtual clock.
const maxStragglerFactor = 1e6

// Crash is one scheduled executor failure. It takes effect at the first
// stage boundary at or after At — the driver learns about executor loss
// asynchronously, between stages, like Spark's heartbeat timeout.
type Crash struct {
	// Exec is the executor slot to kill.
	Exec int
	// At is the virtual time of the crash.
	At sim.Time
	// Replace, when true, brings a replacement executor up in the same
	// slot (fresh, empty block manager) and charges the driver-side
	// relaunch plus the executor startup stage — a standalone-mode
	// supervisor restarting the worker.
	Replace bool
}

// Straggler marks one executor as slow: every task attempt placed on it
// has its compute and memory-stall time inflated by Factor.
type Straggler struct {
	// Exec is the slow executor slot.
	Exec int
	// Factor in [1, 1e6] is the slowdown multiplier.
	Factor float64
}

// Plan is the deterministic fault schedule of one application run. The
// zero value (and a nil *Plan) injects nothing.
type Plan struct {
	// Crashes are executor failures, applied at stage boundaries in
	// slice order once their At time has passed.
	Crashes []Crash
	// Stragglers are slow-executor multipliers, constant for the run.
	Stragglers []Straggler
	// TaskFailureRate is the per-attempt task failure probability in [0,1);
	// a failed attempt is retried up to MaxTaskFailures. Zero injects none.
	TaskFailureRate float64
	// MaxTaskFailures bounds attempts per task (spark.task.maxFailures);
	// reaching it aborts the job. Zero selects DefaultMaxTaskFailures.
	MaxTaskFailures int
	// MaxStageAttempts bounds attempts per stage under FetchFailed
	// resubmission; exhausting it aborts the job. Zero selects
	// DefaultMaxStageAttempts.
	MaxStageAttempts int
	// Speculation enables speculative re-execution: tasks placed on an
	// executor whose straggler factor is at least DefaultSpeculationFactor
	// are cloned onto the fastest idle executor, the two attempts race,
	// and the loser is killed — Spark's spark.speculation.
	Speculation bool
}

// Validate checks the plan against an executor count.
func (p *Plan) Validate(executors int) error {
	if p == nil {
		return nil
	}
	permanent := 0
	for i, c := range p.Crashes {
		if c.Exec < 0 || c.Exec >= executors {
			return fmt.Errorf("faults: crash %d targets executor %d of %d", i, c.Exec, executors)
		}
		if c.At < 0 {
			return fmt.Errorf("faults: crash %d at negative time %v", i, c.At)
		}
		if !c.Replace {
			permanent++
		}
	}
	if permanent >= executors {
		return fmt.Errorf("faults: %d unreplaced crashes would leave no executor of %d alive", permanent, executors)
	}
	for i, s := range p.Stragglers {
		if s.Exec < 0 || s.Exec >= executors {
			return fmt.Errorf("faults: straggler %d targets executor %d of %d", i, s.Exec, executors)
		}
		if !(s.Factor >= 1 && s.Factor <= maxStragglerFactor) {
			return fmt.Errorf("faults: straggler %d factor %v outside [1, %g]", i, s.Factor, maxStragglerFactor)
		}
	}
	if !(p.TaskFailureRate >= 0 && p.TaskFailureRate < 1) {
		return fmt.Errorf("faults: task failure rate %v out of [0,1)", p.TaskFailureRate)
	}
	if p.MaxTaskFailures < 0 {
		return fmt.Errorf("faults: max task failures %d negative", p.MaxTaskFailures)
	}
	if p.MaxStageAttempts < 0 {
		return fmt.Errorf("faults: max stage attempts %d negative", p.MaxStageAttempts)
	}
	return nil
}

// SlowFactor returns the straggler multiplier of an executor (1 when the
// executor is not slowed, or the plan is nil).
func (p *Plan) SlowFactor(exec int) float64 {
	if p == nil {
		return 1
	}
	for _, s := range p.Stragglers {
		if s.Exec == exec && s.Factor > 1 {
			return s.Factor
		}
	}
	return 1
}

// TaskFailureCap returns the effective spark.task.maxFailures bound.
func (p *Plan) TaskFailureCap() int {
	if p == nil || p.MaxTaskFailures <= 0 {
		return DefaultMaxTaskFailures
	}
	return p.MaxTaskFailures
}

// StageAttemptCap returns the effective per-stage attempt bound.
func (p *Plan) StageAttemptCap() int {
	if p == nil || p.MaxStageAttempts <= 0 {
		return DefaultMaxStageAttempts
	}
	return p.MaxStageAttempts
}

// JobAbortedError is the job-level failure surfaced when recovery gives
// up: a task exhausted spark.task.maxFailures, a stage exhausted its
// resubmission attempts, or every executor was lost. The scheduler
// panics with it; harness entry points (hibench.Run) recover it into an
// ordinary error.
type JobAbortedError struct {
	// Job is the 1-based job index within the application.
	Job int
	// Reason describes the exhausted recovery path.
	Reason string
	// Attempts is the attempt count that exhausted the budget.
	Attempts int
}

// Error implements error.
func (e *JobAbortedError) Error() string {
	return fmt.Sprintf("faults: job %d aborted after %d attempts: %s", e.Job, e.Attempts, e.Reason)
}
