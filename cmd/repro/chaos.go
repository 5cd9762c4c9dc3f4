package main

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/faults"
	"repro/internal/hibench"
	"repro/internal/memsim"
	"repro/internal/multitenant"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// layout used for every chaos cell: two executors so crashes leave a
// survivor and stragglers have a fast peer to race against.
const (
	chaosExecutors = 2
	chaosCoresEach = 20
)

// scenario derives a fault plan from the cell's fault-free baseline.
type scenario struct {
	name        string
	expectAbort bool
	plan        func(baseline sim.Time) *faults.Plan
}

func crashAt(baseline sim.Time, frac float64) sim.Time {
	return sim.Time(float64(baseline) * frac)
}

var scenarios = []scenario{
	{name: "crash-replace", plan: func(d sim.Time) *faults.Plan {
		return &faults.Plan{Crashes: []faults.Crash{{Exec: 1, At: crashAt(d, 0.6), Replace: true}}}
	}},
	{name: "crash-lost", plan: func(d sim.Time) *faults.Plan {
		return &faults.Plan{Crashes: []faults.Crash{{Exec: 1, At: crashAt(d, 0.6)}}}
	}},
	{name: "flaky-tasks", plan: func(d sim.Time) *faults.Plan {
		return &faults.Plan{TaskFailureRate: 0.2, MaxTaskFailures: 16}
	}},
	{name: "straggler-speculation", plan: func(d sim.Time) *faults.Plan {
		return &faults.Plan{
			Stragglers:  []faults.Straggler{{Exec: 1, Factor: 4}},
			Speculation: true,
		}
	}},
	{name: "abort-expected", expectAbort: true, plan: func(d sim.Time) *faults.Plan {
		return &faults.Plan{TaskFailureRate: 0.9, MaxTaskFailures: 1}
	}},
}

// chaosCell is one (workload, tier, scenario) verdict.
type chaosCell struct {
	workload, scenario string
	tier               memsim.TierID
	baseline, faulted  sim.Time
}

func (c chaosCell) overhead() float64 {
	if c.baseline == 0 {
		return 0
	}
	return float64(c.faulted-c.baseline) / float64(c.baseline)
}

// failures collects assertion violations: each is reported on stderr as it
// is found, so one bad cell does not hide the rest, and the run fails at
// the end if there were any.
type failures struct {
	c *ctx
	n int
}

func (f *failures) failf(format string, args ...any) {
	fmt.Fprintf(f.c.stderr, "FAIL "+format+"\n", args...)
	f.n++
}

func (f *failures) err() error {
	if f.n == 0 {
		return nil
	}
	return fmt.Errorf("%d assertion failures", f.n)
}

// chaos is the deterministic fault-injection harness: it sweeps fault
// scenarios across the Table II workloads and memory tiers, asserting
// that every recovered run is byte-identical to its fault-free baseline
// (lineage recovery must never change results, only cost time), that
// virtual time stays bit-identical across phase-1 worker counts, and that
// abort scenarios fail loudly with the typed job-abort error. It then
// reports the virtual-time recovery overhead per tier.
//
// Crash times are derived from each cell's fault-free duration, so the
// same scenario lands at the same relative point of every workload.
func chaos(c *ctx) func() error {
	tiersFlag := flagOf(c, "tiers", "0,2", "comma-separated memory tiers to sweep",
		func(s string) ([]memsim.TierID, error) { return list(s, parseTier) })
	size, seed, deliver := c.size("tiny"), c.seed(1), c.output()
	multijob := c.fs.Bool("multijob", false, "multi-tenant mode: crash while >=2 jobs are in flight, assert per-job recovery isolation")
	return func() error {
		fails := &failures{c: c}
		if *multijob {
			if err := chaosMultiJob(c, *seed, fails); err != nil {
				return err
			}
			return fails.err()
		}
		tiers := *tiersFlag
		var cells []chaosCell
		for _, name := range workloads.Names() {
			for _, tier := range tiers {
				base := hibench.RunSpec{
					Workload: name, Size: *size, Tier: tier,
					Executors: chaosExecutors, CoresPerExecutor: chaosCoresEach,
					TaskParallelism: 1, Seed: *seed,
				}
				baseline, err := hibench.Run(base)
				if err != nil {
					return fmt.Errorf("baseline %s: %w", base, err)
				}
				for _, sc := range scenarios {
					cell, errs := runScenario(base, baseline, sc)
					cells = append(cells, cell)
					for _, e := range errs {
						fails.failf("%s/%s tier %d: %v", name, sc.name, tier, e)
					}
					status := "ok"
					if len(errs) > 0 {
						status = "FAIL"
					}
					c.printf("%-12s tier %d %-22s %-4s baseline %8.4fs faulted %8.4fs overhead %+6.1f%%\n",
						name, tier, sc.name, status,
						cell.baseline.Seconds(), cell.faulted.Seconds(), 100*cell.overhead())
				}
			}
		}
		if err := c.deliverAfterLog(deliver, chaosReport(cells, tiers, c.generatedBy("chaos_recovery.md", "tiers", "size", "seed"))); err != nil {
			return err
		}
		return fails.err()
	}
}

// deliverAfterLog ends a harness's stdout log with its markdown report:
// to the -o file, leaving a pointer on stdout, or inline.
func (c *ctx) deliverAfterLog(deliver func(string) (string, error), report string) error {
	path, err := deliver(report)
	if err != nil {
		return err
	}
	if path == "" {
		c.printf("\n%s", report)
	} else {
		c.printf("\nreport written to %s\n", path)
	}
	return nil
}

// runScenario executes one fault scenario against its baseline and checks
// every recovery invariant; violations come back as errors rather than
// aborting the sweep, so one bad cell doesn't hide the rest.
func runScenario(base hibench.RunSpec, baseline hibench.RunResult, sc scenario) (chaosCell, []error) {
	spec := base
	spec.Faults = sc.plan(baseline.Duration)
	res, err := hibench.Run(spec)

	c := chaosCell{
		workload: base.Workload, scenario: sc.name, tier: base.Tier,
		baseline: baseline.Duration,
	}
	var errs []error

	if sc.expectAbort {
		var aborted *faults.JobAbortedError
		if err == nil {
			errs = append(errs, errors.New("expected job abort, run succeeded"))
		} else if !errors.As(err, &aborted) {
			errs = append(errs, fmt.Errorf("abort error has wrong type: %w", err))
		}
		return c, errs
	}
	if err != nil {
		return c, []error{fmt.Errorf("recoverable scenario failed: %w", err)}
	}
	c.faulted = res.Duration
	crashes := res.Engine["recovery.executor_crashes"]
	retries := res.Engine["recovery.task_retries"]
	speculated := res.Engine["recovery.speculative_tasks"]

	// Lineage recovery must reproduce the fault-free results exactly.
	if res.Summary != baseline.Summary {
		errs = append(errs, fmt.Errorf("recovered summary differs from fault-free:\n  clean %s\n  fault %s",
			baseline.Summary, res.Summary))
	}
	// No duration assertion: overhead is usually positive (recomputation,
	// replacement startup) but an unreplaced crash can legitimately come
	// out slightly ahead — consolidating on the survivor turns remote
	// shuffle fetches into local ones. Correctness is byte-identity above.
	// Guard against vacuous scenarios: the plan must have actually fired.
	if strings.HasPrefix(sc.name, "crash") && crashes == 0 {
		errs = append(errs, errors.New("crash scenario crashed nothing"))
	}
	if sc.name == "flaky-tasks" && retries == 0 {
		errs = append(errs, errors.New("flaky scenario retried nothing"))
	}
	if crashes+retries+speculated == 0 {
		errs = append(errs, errors.New("fault plan never fired"))
	}

	// Recovery must be bit-identical for any phase-1 worker count. The
	// replay reads a cold store, so it generates the input on 8 workers
	// instead of reading the pages hibench.Run's slot kept from the
	// sequential run.
	par := spec
	par.TaskParallelism = 8
	again, err := hibench.RunShared(par, nil)
	if err != nil {
		errs = append(errs, fmt.Errorf("8-worker replay failed: %w", err))
	} else if again.Duration != res.Duration || again.Summary != res.Summary {
		errs = append(errs, fmt.Errorf("8-worker replay diverged: %v vs %v", again.Duration, res.Duration))
	}
	return c, errs
}

// chaosReport emits the per-tier recovery-overhead table in markdown.
func chaosReport(cells []chaosCell, tiers []memsim.TierID, generatedBy string) string {
	var b strings.Builder
	b.WriteString("# Chaos harness: virtual-time recovery overhead\n\n")
	b.WriteString(generatedBy)
	b.WriteString("Every recovered run reproduced its fault-free results byte-identically;\n")
	b.WriteString("the table shows what recovery cost in virtual time, per tier.\n\n")
	for _, tier := range tiers {
		fmt.Fprintf(&b, "## %s\n\n", tier)
		b.WriteString("| workload | scenario | fault-free (s) | recovered (s) | overhead |\n")
		b.WriteString("|---|---|---:|---:|---:|\n")
		for _, c := range cells {
			if c.tier != tier {
				continue
			}
			if c.scenario == "abort-expected" {
				fmt.Fprintf(&b, "| %s | %s | %.4f | — | aborted (expected) |\n",
					c.workload, c.scenario, c.baseline.Seconds())
				continue
			}
			fmt.Fprintf(&b, "| %s | %s | %.4f | %.4f | %+.1f%% |\n",
				c.workload, c.scenario, c.baseline.Seconds(), c.faulted.Seconds(), 100*c.overhead())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// multiJobConf is the multi-tenant chaos mix: two tenants whose jobs
// overlap in virtual time under the default (uncontended) DRAM budget,
// with an optional executor crash injected into tenant a's first job.
func multiJobConf(seed int64, faulted bool) multitenant.Conf {
	c := multitenant.Conf{
		Tenants: []multitenant.TenantSpec{
			{Name: "a", Jobs: 2, FastQuotaBytes: 32 << 10},
			{Name: "b", Jobs: 2, FastQuotaBytes: 4 << 20},
		},
		Workloads: []string{"sort", "bayes"},
		Size:      workloads.Tiny,
		Seed:      seed,
	}
	if faulted {
		c.Faults = func(tenant, seq int) *faults.Plan {
			if tenant == 0 && seq == 0 {
				return &faults.Plan{Crashes: []faults.Crash{
					{Exec: 1, At: 2 * sim.Millisecond, Replace: true},
				}}
			}
			return nil
		}
	}
	return c
}

// chaosMultiJob asserts the per-job fault-recovery invariants of the
// multi-tenant engine: a crash injected while at least two jobs are in
// flight recovers through lineage without touching any other job — every
// result matches the fault-free mix, the untouched jobs' virtual
// durations are bit-identical, recovery counters stay inside the faulted
// tenant's prefix, both tenant ledgers drain to zero, and the faulted
// mix's full report is byte-identical across phase-1 worker counts.
func chaosMultiJob(c *ctx, seed int64, fails *failures) error {
	fail := func(format string, args ...any) { fails.failf("multijob: "+format, args...) }

	clean, err := multitenant.Run(multiJobConf(seed, false))
	if err != nil {
		return fmt.Errorf("multijob: fault-free mix: %w", err)
	}
	faulted, err := multitenant.Run(multiJobConf(seed, true))
	if err != nil {
		return fmt.Errorf("multijob: faulted mix: %w", err)
	}
	if faulted.Completed != len(faulted.Jobs) {
		fail("faulted mix completed %d of %d jobs", faulted.Completed, len(faulted.Jobs))
	}

	// The crash must land while at least one other job is in flight.
	targetAt := -1
	for i, r := range faulted.Jobs {
		if r.Job.Tenant == "a" && r.Job.Seq == 0 {
			targetAt = i
		}
	}
	if targetAt < 0 {
		return errors.New("multijob: job a/0 missing from mix")
	}
	target := faulted.Jobs[targetAt]
	overlap := 0
	for i, r := range faulted.Jobs {
		if i == targetAt || !r.Admitted {
			continue
		}
		if r.AdmitAt < target.DoneAt && r.DoneAt > target.AdmitAt {
			overlap++
		}
	}
	if overlap == 0 {
		fail("crash landed with no other job in flight")
	}

	// Lineage recovery must reproduce every fault-free result, and jobs
	// the crash never touched must not even shift in virtual time.
	for i, fr := range faulted.Jobs {
		cr := clean.Jobs[i]
		if fr.Job.Tenant != cr.Job.Tenant || fr.Job.Seq != cr.Job.Seq {
			fail("mix order diverged at %d: %s vs %s", i, fr.Job, cr.Job)
			continue
		}
		if fr.Records != cr.Records {
			fail("%s records %d differ from fault-free %d", fr.Job, fr.Records, cr.Records)
		}
		if i != targetAt && fr.Duration != cr.Duration {
			fail("untouched job %s duration %d differs from fault-free %d",
				fr.Job, int64(fr.Duration), int64(cr.Duration))
		}
	}

	// Recovery counters stay inside the faulted tenant's prefix.
	if got := faulted.Registry.Get("tenant.a.recovery.executor_crashes"); got != 1 {
		fail("tenant.a.recovery.executor_crashes = %d, want 1", got)
	}
	if got := faulted.Registry.Get("tenant.b.recovery.executor_crashes"); got != 0 {
		fail("crash bled into tenant b (recovery.executor_crashes = %d)", got)
	}

	// No cross-tenant ledger bleed: both runs drain both quotas to zero.
	for _, res := range []*multitenant.MixResult{clean, faulted} {
		for _, tenant := range []string{"a", "b"} {
			for _, g := range []string{"quota.end_fast_bytes", "quota.end_slow_bytes"} {
				if v := res.Registry.Get("tenant." + tenant + "." + g); v != 0 {
					fail("tenant %s ledger not drained: %s = %d", tenant, g, v)
				}
			}
		}
	}

	// Recovery under contention must stay byte-identical for any phase-1
	// worker count.
	sameAtAnyWorkerCount(multiJobConf(seed, true), fail)

	if fails.n == 0 {
		c.printf("multijob: crash recovered with %d jobs overlapping; %d jobs byte-identical to fault-free mix; ledgers drained\n",
			overlap, len(faulted.Jobs))
	}
	return nil
}

// sameAtAnyWorkerCount runs the mix under 1 and 8 forced phase-1 workers
// and reports whether its full reports — trace, per-job table, per-tenant
// counters — came out byte-identical, as they must.
func sameAtAnyWorkerCount(conf multitenant.Conf, fail func(string, ...any)) bool {
	var reports [2]string
	for i, workers := range []int{1, 8} {
		conf.TaskParallelism = workers
		res, err := multitenant.Run(conf)
		if err != nil {
			fail("determinism run (workers=%d): %v", workers, err)
			return false
		}
		reports[i] = multitenant.RenderReport(res)
	}
	if reports[0] != reports[1] {
		fail("full report differs between 1 and 8 phase-1 workers")
		return false
	}
	return true
}
