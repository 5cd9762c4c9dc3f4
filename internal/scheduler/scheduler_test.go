package scheduler_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/faults"
	"repro/internal/memsim"
	"repro/internal/rdd"
)

func newApp(t *testing.T) *cluster.App {
	t.Helper()
	conf := cluster.DefaultConf()
	conf.CoresPerExecutor = 4
	conf.DefaultParallelism = 6
	return cluster.New(conf)
}

func TestNarrowJobIsOneStage(t *testing.T) {
	app := newApp(t)
	before := app.Metrics()
	r := rdd.Parallelize(app, "xs", []int{1, 2, 3, 4}, 2)
	rdd.Count(rdd.Map(r, func(v int) int { return v + 1 }))
	after := app.Metrics()
	if got := after.Stages - before.Stages; got != 1 {
		t.Fatalf("narrow job ran %d stages, want 1", got)
	}
	if got := after.Tasks - before.Tasks; got != 2 {
		t.Fatalf("narrow job ran %d tasks, want 2 (one per partition)", got)
	}
}

func TestShuffleJobIsTwoStages(t *testing.T) {
	app := newApp(t)
	before := app.Metrics()
	pairs := rdd.Parallelize(app, "ps", []rdd.Pair[int, int]{rdd.KV(1, 1), rdd.KV(2, 2)}, 2)
	red := rdd.ReduceByKey(pairs, func(a, b int) int { return a + b }, 3)
	rdd.Count(red)
	after := app.Metrics()
	if got := after.Stages - before.Stages; got != 2 {
		t.Fatalf("shuffle job ran %d stages, want 2 (map + result)", got)
	}
	if got := after.Tasks - before.Tasks; got != 2+3 {
		t.Fatalf("shuffle job ran %d tasks, want 5 (2 map + 3 reduce)", got)
	}
}

func TestDiamondLineageMaterializesShuffleOnce(t *testing.T) {
	// Two branches consuming the same shuffled RDD must not re-run its
	// map stage.
	app := newApp(t)
	pairs := rdd.Parallelize(app, "ps", []rdd.Pair[int, int]{rdd.KV(1, 1), rdd.KV(2, 2), rdd.KV(1, 3)}, 2)
	red := rdd.ReduceByKey(pairs, func(a, b int) int { return a + b }, 2)
	a := rdd.Map(red, func(p rdd.Pair[int, int]) int { return p.Val })
	b := rdd.Map(red, func(p rdd.Pair[int, int]) int { return p.Key })

	before := app.Metrics()
	rdd.Count(a)
	mid := app.Metrics()
	rdd.Count(b)
	after := app.Metrics()

	if got := mid.Stages - before.Stages; got != 2 {
		t.Fatalf("first branch ran %d stages, want 2", got)
	}
	if got := after.Stages - mid.Stages; got != 1 {
		t.Fatalf("second branch ran %d stages, want 1 (shuffle reused)", got)
	}
}

func TestChainedShufflesTopologicalOrder(t *testing.T) {
	app := newApp(t)
	pairs := rdd.Parallelize(app, "ps",
		[]rdd.Pair[int, int]{rdd.KV(1, 1), rdd.KV(2, 2), rdd.KV(3, 3)}, 3)
	first := rdd.ReduceByKey(pairs, func(a, b int) int { return a + b }, 2)
	rekeyed := rdd.Map(first, func(p rdd.Pair[int, int]) rdd.Pair[int, int] {
		return rdd.KV(p.Key%2, p.Val)
	})
	second := rdd.ReduceByKey(rekeyed, func(a, b int) int { return a + b }, 2)
	got := rdd.Collect(second)
	sum := 0
	for _, p := range got {
		sum += p.Val
	}
	if sum != 6 {
		t.Fatalf("chained shuffles lost records: sum = %d, want 6", sum)
	}
}

func TestVirtualTimeAdvancesPerJob(t *testing.T) {
	app := newApp(t)
	r := rdd.Parallelize(app, "xs", []int{1, 2, 3}, 3)
	t0 := app.Elapsed()
	rdd.Count(r)
	t1 := app.Elapsed()
	rdd.Count(r)
	t2 := app.Elapsed()
	if !(t0 < t1 && t1 < t2) {
		t.Fatalf("virtual clock not advancing per job: %v %v %v", t0, t1, t2)
	}
	// Each job pays at least the job + stage overheads.
	minJob := app.Cost().JobOverheadNS + app.Cost().StageOverheadNS
	if float64(t2-t1) < minJob {
		t.Fatalf("second job advanced %v, want >= %v ns", t2-t1, minJob)
	}
}

func TestStatsAccumulate(t *testing.T) {
	app := newApp(t)
	pairs := rdd.Parallelize(app, "ps", []rdd.Pair[int, int]{rdd.KV(1, 1)}, 1)
	rdd.Count(rdd.GroupByKey(pairs, 2))
	m := app.Metrics()
	if m.CPUNS <= 0 {
		t.Error("no CPU time accumulated")
	}
	if m.ShuffleRead <= 0 {
		t.Error("no shuffle bytes accounted")
	}
	if m.Tasks <= 0 || m.Stages <= 0 {
		t.Error("no tasks/stages accounted")
	}
}

// The scheduler must charge more memory-stall time for the same job on a
// slower tier, with identical task/stage counts.
func TestSchedulerTierAffectsTimeNotStructure(t *testing.T) {
	run := func(tier memsim.TierID) (int, int, float64) {
		conf := cluster.DefaultConf()
		conf.CoresPerExecutor = 4
		conf.DefaultParallelism = 6
		conf.Binding.Mem = tier
		app := cluster.New(conf)
		var pairs []rdd.Pair[int, int]
		for i := 0; i < 3000; i++ {
			pairs = append(pairs, rdd.KV(i%37, i))
		}
		r := rdd.Parallelize(app, "ps", pairs, 6)
		rdd.Count(rdd.GroupByKey(r, 6))
		m := app.Metrics()
		return m.Stages, m.Tasks, app.Elapsed().Seconds()
	}
	s0, t0, d0 := run(memsim.Tier0)
	s3, t3, d3 := run(memsim.Tier3)
	if s0 != s3 || t0 != t3 {
		t.Fatalf("structure changed across tiers: %d/%d vs %d/%d stages/tasks", s0, t0, s3, t3)
	}
	if d3 <= d0 {
		t.Fatalf("Tier3 (%.4fs) not slower than Tier0 (%.4fs)", d3, d0)
	}
}

var _ = executor.CostModel{} // keep the executor import for cost assertions

func TestTracingRecordsStages(t *testing.T) {
	app := newApp(t)
	rec := app.EnableTracing()
	pairs := rdd.Parallelize(app, "ps", []rdd.Pair[int, int]{rdd.KV(1, 1), rdd.KV(2, 2)}, 2)
	rdd.Count(rdd.ReduceByKey(pairs, func(a, b int) int { return a + b }, 2))

	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2 (map + result)", len(spans))
	}
	if spans[0].Start >= spans[0].End || spans[1].Start < spans[0].End {
		t.Fatalf("stage spans not ordered: %+v", spans)
	}
	if spans[0].Tasks != 2 {
		t.Fatalf("map stage tasks = %d, want 2", spans[0].Tasks)
	}
	if spans[0].Category != "stage" {
		t.Fatalf("category = %q", spans[0].Category)
	}
}

func TestTracingDisabledByDefault(t *testing.T) {
	app := newApp(t)
	r := rdd.Parallelize(app, "xs", []int{1}, 1)
	rdd.Count(r) // must not panic with a nil tracer
	if app.Tracer() != nil {
		t.Fatal("tracer should be nil unless enabled")
	}
}

func TestFailureInjectionRetriesAndSlowsDown(t *testing.T) {
	run := func(rate float64) (float64, int) {
		conf := cluster.DefaultConf()
		conf.CoresPerExecutor = 4
		conf.DefaultParallelism = 8
		// A 30% rate busts the default 4-attempt budget with probability
		// 0.3^4 per task; raise the cap so this test exercises retries,
		// not job abort (abort has its own tests).
		conf.Faults = &faults.Plan{TaskFailureRate: rate, MaxTaskFailures: 16}
		app := cluster.New(conf)
		var pairs []rdd.Pair[int, int]
		for i := 0; i < 2000; i++ {
			pairs = append(pairs, rdd.KV(i%31, i))
		}
		r := rdd.Parallelize(app, "ps", pairs, 8)
		got := rdd.Collect(rdd.ReduceByKey(r, func(a, b int) int { return a + b }, 8))
		if len(got) != 31 {
			t.Fatalf("failure injection corrupted results: %d keys", len(got))
		}
		m := app.Metrics()
		return app.Elapsed().Seconds(), m.Tasks
	}
	clean, _ := run(0)
	flaky, _ := run(0.3)
	if flaky <= clean {
		t.Fatalf("30%% failure rate did not slow the job: %.4fs vs %.4fs", flaky, clean)
	}
	// Determinism under injection.
	again, _ := run(0.3)
	if again != flaky {
		t.Fatalf("failure injection not deterministic: %.6f vs %.6f", again, flaky)
	}
}

func TestFailureRateValidation(t *testing.T) {
	conf := cluster.DefaultConf()
	conf.Faults = &faults.Plan{TaskFailureRate: 1.0}
	if conf.Validate() == nil {
		t.Fatal("failure rate 1.0 accepted (would loop forever)")
	}
	conf.Faults = &faults.Plan{TaskFailureRate: -0.1}
	if conf.Validate() == nil {
		t.Fatal("negative failure rate accepted")
	}
}
