package scheduler_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/faults"
	"repro/internal/memsim"
	"repro/internal/rdd"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// fingerprint is everything observable about a run that the determinism
// contract covers: run metrics (the scheduler's stats folded in), the full per-tier counter
// snapshot, energy totals and the job results. Parallel and sequential
// phase-1 execution must produce identical fingerprints.
type fingerprint struct {
	metrics  telemetry.RunMetrics
	snapshot [memsim.NumTiers]memsim.Counters
	energyJ  [2]float64 // Tier 0 and Tier 2 device groups
	results  string
	tasks    int64 // engine counter: tasks computed in phase 1
}

func (f fingerprint) equal(g fingerprint) bool {
	return f.metrics == g.metrics &&
		f.snapshot == g.snapshot && f.energyJ == g.energyJ &&
		f.results == g.results && f.tasks == g.tasks
}

// runCachedWorkload exercises the RDD cache: a generated dataset is cached,
// then consumed by two jobs (the second job hits every cached partition)
// plus a shuffle aggregation on top.
func runCachedWorkload(app *cluster.App) string {
	data := rdd.Cache(rdd.Generate(app, "pts", 600, 6, func(r *rand.Rand, i int) float64 {
		return r.NormFloat64() + float64(i%7)
	}))
	n := rdd.Count(data) // computes and caches all partitions
	pairs := rdd.Map(data, func(v float64) rdd.Pair[int, float64] {
		return rdd.KV(int(v*10)%5, v)
	})
	sums := rdd.Collect(rdd.ReduceByKey(pairs, func(a, b float64) float64 { return a + b }, 4))
	return fmt.Sprintf("%d %v", n, sums)
}

// runShuffleWorkload chains two wide dependencies: a group-by and a sort,
// the shape of the repartition/sort micro workloads.
func runShuffleWorkload(app *cluster.App) string {
	words := rdd.Generate(app, "words", 800, 8, func(r *rand.Rand, i int) rdd.Pair[string, int] {
		return rdd.KV(fmt.Sprintf("k%03d", r.Intn(97)), 1)
	})
	grouped := rdd.GroupByKey(words, 5)
	counts := rdd.Map(grouped, func(p rdd.Pair[string, []int]) rdd.Pair[string, int] {
		return rdd.KV(p.Key, len(p.Val))
	})
	sorted := rdd.SortByKey(counts, func(a, b string) bool { return a < b }, 4)
	return fmt.Sprint(rdd.Collect(sorted))
}

func runWithWorkers(t *testing.T, workers int, body func(app *cluster.App) string) fingerprint {
	t.Helper()
	conf := cluster.DefaultConf()
	conf.CoresPerExecutor = 4
	conf.DefaultParallelism = 6
	conf.TaskParallelism = workers
	app := cluster.New(conf)
	results := body(app)
	return fingerprint{
		metrics:  app.Metrics(),
		snapshot: app.System().Snapshot(),
		energyJ:  [2]float64{app.EnergyReport(memsim.Tier0).TotalJ, app.EnergyReport(memsim.Tier2).TotalJ},
		results:  results,
		tasks:    app.EngineCounters().Get("tasks.computed"),
	}
}

// TestParallelMatchesSequential is the determinism contract: N-worker and
// 1-worker runs of the same workload produce identical scheduler stats,
// metrics, tier counters, energy totals and job results — for a cached
// workload and a shuffle-heavy one.
func TestParallelMatchesSequential(t *testing.T) {
	workloadBodies := map[string]func(app *cluster.App) string{
		"cached":  runCachedWorkload,
		"shuffle": runShuffleWorkload,
	}
	for name, body := range workloadBodies {
		t.Run(name, func(t *testing.T) {
			seq := runWithWorkers(t, 1, body)
			for _, workers := range []int{2, 4, 13} {
				par := runWithWorkers(t, workers, body)
				if !par.equal(seq) {
					t.Fatalf("%d workers diverged from sequential:\nseq %+v\npar %+v", workers, seq, par)
				}
			}
			if seq.tasks == 0 {
				t.Fatal("engine counter recorded no computed tasks")
			}
		})
	}
}

// The engine counters record one stages.run per stage attempt and one
// tasks.computed per task, whatever the worker count.
func TestEngineCountersTrackStageMode(t *testing.T) {
	conf := cluster.DefaultConf()
	conf.CoresPerExecutor = 4
	conf.DefaultParallelism = 6
	conf.TaskParallelism = 4
	app := cluster.New(conf)
	runShuffleWorkload(app)
	reg := app.EngineCounters()
	if reg.Get("stages.run") != int64(app.Metrics().Stages) {
		t.Fatalf("stages.run = %d, scheduler stages = %d",
			reg.Get("stages.run"), app.Metrics().Stages)
	}
	if reg.Get("tasks.computed") != int64(app.Metrics().Tasks) {
		t.Fatalf("tasks.computed = %d, scheduler tasks = %d",
			reg.Get("tasks.computed"), app.Metrics().Tasks)
	}
}

// A panicking task must surface its original panic value on the driver
// goroutine, deterministically the lowest-partition one when several tasks
// fail, with no partial stage commit.
func TestTaskPanicPropagates(t *testing.T) {
	conf := cluster.DefaultConf()
	conf.CoresPerExecutor = 4
	conf.TaskParallelism = 4
	app := cluster.New(conf)
	data := rdd.Generate(app, "xs", 64, 8, func(r *rand.Rand, i int) int { return i })
	boom := rdd.MapPartitions(data, func(ctx *executor.TaskContext, part int, in []int) []int {
		if part == 2 || part == 5 {
			panic(fmt.Sprintf("boom %d", part))
		}
		return in
	})
	before := app.System().Snapshot()
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		rdd.Collect(boom)
	}()
	if recovered == nil {
		t.Fatal("task panic did not propagate")
	}
	if msg, ok := recovered.(string); !ok || !strings.Contains(msg, "boom 2") {
		t.Fatalf("recovered %v, want the lowest-partition panic (boom 2)", recovered)
	}
	if app.System().Snapshot() != before {
		t.Fatal("a failed stage partially committed tier counters")
	}
}

// Failure injection is keyed on (seed, stage, partition), so the injected
// retry counts — and the virtual time they cost — must be identical for
// any phase-1 worker count.
func TestFailureInjectionDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) (int64, sim.Time) {
		conf := cluster.DefaultConf()
		conf.CoresPerExecutor = 4
		conf.DefaultParallelism = 6
		// Keep the flaky run below the abort threshold: this test pins
		// retry determinism, not exhaustion.
		conf.Faults = &faults.Plan{TaskFailureRate: 0.3, MaxTaskFailures: 16}
		conf.Seed = 11
		conf.TaskParallelism = workers
		app := cluster.New(conf)
		runShuffleWorkload(app)
		return app.EngineCounters().Get("recovery.task_retries"), app.Elapsed()
	}
	seqRetries, seqElapsed := run(1)
	if seqRetries == 0 {
		t.Fatal("failure rate 0.3 injected no retries; the test is vacuous")
	}
	for _, workers := range []int{3, 7} {
		retries, elapsed := run(workers)
		if retries != seqRetries || elapsed != seqElapsed {
			t.Fatalf("%d workers: retries=%d elapsed=%v, sequential retries=%d elapsed=%v",
				workers, retries, elapsed, seqRetries, seqElapsed)
		}
	}
}
