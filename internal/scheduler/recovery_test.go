package scheduler_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/rdd"
	"repro/internal/sim"
)

// runLineageWorkload caches a generated dataset, aggregates it through a
// shuffle, and consumes the shuffle twice (the second job reuses the
// materialized map outputs — the shape that turns an executor crash into
// a fetch failure).
func runLineageWorkload(app *cluster.App) string {
	data := rdd.Cache(rdd.Generate(app, "xs", 600, 6, func(r *rand.Rand, i int) int {
		return r.Intn(1000)
	}))
	n := rdd.Count(data)
	pairs := rdd.Map(data, func(v int) rdd.Pair[int, int] { return rdd.KV(v%13, v) })
	red := rdd.ReduceByKey(pairs, func(a, b int) int { return a + b }, 4)
	s1 := fmt.Sprint(rdd.Collect(red))
	s2 := fmt.Sprint(rdd.Collect(red)) // shuffle reuse
	return fmt.Sprintf("%d %s %s", n, s1, s2)
}

type recoveryRun struct {
	results string
	elapsed sim.Time
	engine  map[string]int64
}

// counters renders the run's whole engine snapshot in name order. Every
// counter is a virtual fact, so none may depend on the phase-1 worker
// count.
func (r recoveryRun) counters() string {
	var names []string
	for name := range r.engine {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s=%d ", name, r.engine[name])
	}
	return b.String()
}

func runWithPlan(t *testing.T, plan *faults.Plan, workers int) recoveryRun {
	t.Helper()
	conf := cluster.DefaultConf()
	conf.Executors = 3
	conf.CoresPerExecutor = 4
	conf.DefaultParallelism = 6
	conf.TaskParallelism = workers
	conf.Faults = plan
	app := cluster.New(conf)
	results := runLineageWorkload(app)
	return recoveryRun{
		results: results,
		elapsed: app.Elapsed(),
		engine:  app.EngineCounters().Snapshot(),
	}
}

// midRunCrash schedules one crash just before the final stage of the
// fault-free run — the shuffle is materialized and about to be re-fetched,
// so the loss must surface as a fetch failure. Crash times are virtual
// times, and the faulted run replays the baseline exactly up to the crash,
// so timing read off the fault-free trace is valid for placement.
func midRunCrash(t *testing.T, replace bool) (*faults.Plan, recoveryRun) {
	t.Helper()
	conf := cluster.DefaultConf()
	conf.Executors = 3
	conf.CoresPerExecutor = 4
	conf.DefaultParallelism = 6
	conf.TaskParallelism = 1
	app := cluster.New(conf)
	rec := app.EnableTracing()
	baseline := recoveryRun{
		results: runLineageWorkload(app),
		elapsed: app.Elapsed(),
		engine:  app.EngineCounters().Snapshot(),
	}
	spans := rec.Spans()
	last := spans[len(spans)-1]
	plan := &faults.Plan{
		Crashes: []faults.Crash{{Exec: 1, At: last.Start - 1, Replace: replace}},
	}
	return plan, baseline
}

// An executor crash mid-run loses cache blocks and map outputs; lineage
// recovery must resubmit exactly the lost work and produce byte-identical
// results, bit-identically for any phase-1 worker count.
func TestCrashRecoveryProducesIdenticalResults(t *testing.T) {
	for _, replace := range []bool{true, false} {
		name := "mark-dead"
		if replace {
			name = "replace"
		}
		t.Run(name, func(t *testing.T) {
			plan, baseline := midRunCrash(t, replace)
			faulted := runWithPlan(t, plan, 1)

			if faulted.results != baseline.results {
				t.Fatalf("recovered results differ from fault-free:\nfault-free %s\nrecovered  %s",
					baseline.results, faulted.results)
			}
			if lost := faulted.engine["recovery.executor_crashes"]; lost != 1 {
				t.Fatalf("executors lost = %d, want 1", lost)
			}
			if faulted.engine["recovery.fetch_failures"] == 0 || faulted.engine["recovery.stage_resubmissions"] == 0 {
				t.Fatalf("crash did not exercise fetch-failure recovery: %s (vacuous scenario)", faulted.counters())
			}
			if faulted.elapsed <= baseline.elapsed {
				t.Fatalf("recovery was free: %v vs fault-free %v", faulted.elapsed, baseline.elapsed)
			}

			// Bit-identical virtual time and counters across worker counts.
			for _, workers := range []int{2, 8} {
				again := runWithPlan(t, plan, workers)
				if again.results != faulted.results || again.elapsed != faulted.elapsed || again.counters() != faulted.counters() {
					t.Fatalf("%d workers diverged under faults:\nseq %v %s\npar %v %s",
						workers, faulted.elapsed, faulted.counters(), again.elapsed, again.counters())
				}
			}
		})
	}
}

// The recovery counter names are API: harnesses and the chaos report key
// on them, so renames must be deliberate.
func TestRecoveryCounterNamesPinned(t *testing.T) {
	plan, _ := midRunCrash(t, true)
	plan.TaskFailureRate = 0.3 // high enough that some task retries fire
	plan.MaxTaskFailures = 16  // ... without a realistic chance of abort
	run := runWithPlan(t, plan, 1)

	mustHave := []string{
		"recovery.executor_crashes",
		"recovery.executors_replaced",
		"recovery.cache_blocks_lost",
		"recovery.cache_bytes_lost",
		"recovery.map_outputs_lost",
		"recovery.shuffle_bytes_lost",
		"recovery.fetch_failures",
		"recovery.stage_resubmissions",
		"recovery.task_retries",
	}
	for _, name := range mustHave {
		if _, ok := run.engine[name]; !ok {
			t.Errorf("engine counters missing %q (have %v)", name, run.engine)
		}
	}
	if run.engine["recovery.executor_crashes"] != 1 || run.engine["recovery.executors_replaced"] != 1 {
		t.Fatalf("crash counters wrong: %v", run.engine)
	}
	if run.engine["recovery.map_outputs_lost"] == 0 {
		t.Fatalf("no map outputs lost: vacuous crash scenario: %v", run.engine)
	}
}

// Recovery spans must land in the tracer under the "recovery" category so
// trace timelines show crashes and resubmissions distinctly from stages.
func TestRecoverySpansRecorded(t *testing.T) {
	plan, _ := midRunCrash(t, true)
	conf := cluster.DefaultConf()
	conf.Executors = 3
	conf.CoresPerExecutor = 4
	conf.DefaultParallelism = 6
	conf.TaskParallelism = 1
	conf.Faults = plan
	app := cluster.New(conf)
	rec := app.EnableTracing()
	runLineageWorkload(app)

	recovery := 0
	for _, span := range rec.Spans() {
		if span.Category == "recovery" {
			recovery++
		}
	}
	if recovery < 3 { // crash + failed attempt + resubmission at minimum
		t.Fatalf("recorded %d recovery spans, want >= 3: %+v", recovery, rec.Spans())
	}
}

// Exhausting the per-stage attempt budget must abort the job with the
// typed error, not return wrong results.
func TestStageAttemptExhaustionAborts(t *testing.T) {
	plan, _ := midRunCrash(t, false)
	plan.MaxStageAttempts = 1 // first fetch failure is fatal

	conf := cluster.DefaultConf()
	conf.Executors = 3
	conf.CoresPerExecutor = 4
	conf.DefaultParallelism = 6
	conf.TaskParallelism = 1
	conf.Faults = plan
	app := cluster.New(conf)

	var recovered any
	func() {
		defer func() { recovered = recover() }()
		runLineageWorkload(app)
	}()
	aborted, ok := recovered.(*faults.JobAbortedError)
	if !ok {
		t.Fatalf("recovered %v (%T), want *faults.JobAbortedError", recovered, recovered)
	}
	if aborted.Attempts != 1 {
		t.Fatalf("abort after %d attempts, want 1", aborted.Attempts)
	}
	var asErr *faults.JobAbortedError
	if !errors.As(error(aborted), &asErr) {
		t.Fatal("JobAbortedError does not satisfy errors.As")
	}
}

// Losing every executor (unreplaced crashes) aborts rather than hanging.
func TestAllExecutorsLostAborts(t *testing.T) {
	baseline := runWithPlan(t, nil, 1)
	conf := cluster.DefaultConf()
	conf.Executors = 2
	conf.CoresPerExecutor = 4
	conf.DefaultParallelism = 6
	conf.TaskParallelism = 1
	// Conf.Validate rejects schedules that empty the pool, so build the
	// scheduler-facing plan after validation — the scheduler must still
	// defend itself.
	conf.Faults = &faults.Plan{
		Crashes: []faults.Crash{{Exec: 0, At: baseline.elapsed / 4}},
	}
	app := cluster.New(conf)
	conf.Faults.Crashes = append(conf.Faults.Crashes,
		faults.Crash{Exec: 1, At: baseline.elapsed / 4})

	var recovered any
	func() {
		defer func() { recovered = recover() }()
		runLineageWorkload(app)
	}()
	if _, ok := recovered.(*faults.JobAbortedError); !ok {
		t.Fatalf("recovered %v (%T), want *faults.JobAbortedError", recovered, recovered)
	}
}

// A straggling executor slows the run; enabling speculation claws the
// time back by cloning its tasks onto faster executors.
func TestSpeculationRecoversStragglerTime(t *testing.T) {
	straggler := &faults.Plan{
		Stragglers: []faults.Straggler{{Exec: 1, Factor: 8}},
	}
	speculating := &faults.Plan{
		Stragglers:  []faults.Straggler{{Exec: 1, Factor: 8}},
		Speculation: true,
	}
	clean := runWithPlan(t, nil, 1)
	slow := runWithPlan(t, straggler, 1)
	spec := runWithPlan(t, speculating, 1)

	if slow.elapsed <= clean.elapsed {
		t.Fatalf("straggler did not slow the run: %v vs %v", slow.elapsed, clean.elapsed)
	}
	if spec.elapsed >= slow.elapsed {
		t.Fatalf("speculation did not help: %v vs straggler-only %v", spec.elapsed, slow.elapsed)
	}
	if spec.engine["recovery.speculative_tasks"] == 0 {
		t.Fatal("no speculative tasks launched")
	}
	if spec.results != clean.results || slow.results != clean.results {
		t.Fatal("fault plans changed results")
	}
	// Determinism across worker counts with speculation active.
	again := runWithPlan(t, speculating, 8)
	if again.elapsed != spec.elapsed || again.counters() != spec.counters() {
		t.Fatalf("speculation not deterministic across workers: %v/%s vs %v/%s",
			spec.elapsed, spec.counters(), again.elapsed, again.counters())
	}
}

// A bounded cache that evicts persisted partitions must transparently
// recompute them from lineage: results identical to the unbounded run,
// with the hit/miss/eviction counters reflecting the thrash.
func TestBoundedCacheRecomputesFromLineage(t *testing.T) {
	run := func(capacity int64) (string, int64, int64, int64) {
		conf := cluster.DefaultConf()
		conf.CoresPerExecutor = 4
		conf.DefaultParallelism = 4
		conf.TaskParallelism = 1
		conf.CacheCapacity = capacity
		app := cluster.New(conf)
		data := rdd.Cache(rdd.Generate(app, "xs", 400, 4, func(r *rand.Rand, i int) int {
			return r.Intn(100)
		}))
		first := fmt.Sprint(rdd.Count(data), rdd.Collect(rdd.Map(data, func(v int) int { return v * 2 }))[:4])
		second := fmt.Sprint(rdd.Count(data), rdd.Collect(rdd.Map(data, func(v int) int { return v * 2 }))[:4])
		if first != second {
			t.Fatalf("recomputation diverged: %s vs %s", first, second)
		}
		var hits, misses, evictions int64
		for _, ex := range app.Pool().Executors {
			h, m, e := ex.Blocks.Stats()
			hits, misses, evictions = hits+h, misses+m, evictions+e
		}
		return first, hits, misses, evictions
	}

	unbounded, uHits, uMisses, uEvict := run(0)
	if uEvict != 0 {
		t.Fatalf("unbounded cache evicted %d blocks", uEvict)
	}
	// 4 partitions x 3 reads after the caching job -> 12 hits; the 4
	// misses are the initial computes.
	if uHits != 12 || uMisses != 4 {
		t.Fatalf("unbounded cache stats: hits=%d misses=%d, want 12/4", uHits, uMisses)
	}

	// A capacity of one block forces continuous eviction; every re-read
	// becomes a miss recomputed from lineage, with identical bytes/items.
	bounded, bHits, bMisses, bEvict := run(2200)
	if bounded != unbounded {
		t.Fatalf("bounded cache changed results:\nunbounded %s\nbounded   %s", unbounded, bounded)
	}
	if bEvict == 0 {
		t.Fatal("tight capacity evicted nothing; the test is vacuous")
	}
	if bMisses <= uMisses {
		t.Fatalf("evictions produced no extra misses: %d vs %d", bMisses, uMisses)
	}
	if bHits >= uHits {
		t.Fatalf("thrashing cache should hit less: %d vs %d", bHits, uHits)
	}
}
