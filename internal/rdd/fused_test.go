package rdd_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/rdd"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

type textRecord = workloads.TextRecord

func textKey(t textRecord) string { return t.Key }

// edgeKeys fills out with keys built to trip the sort's prefix index:
// duplicates, keys sharing the 8-byte prefix "keyshare" and differing past
// it, "ab" beside "ab\x00", and bytes above 0x7f. Payload is the record's
// index, so a stable order is visible in the output.
func edgeKeys(r *rand.Rand, lo, _ int, out []textRecord) {
	for i := range out {
		var key string
		switch r.Intn(4) {
		case 0:
			key = []string{"ab", "ab\x00", "", "ab\x00\x00"}[r.Intn(4)]
		case 1:
			key = "keyshare" + string("\x00a\x80"[r.Intn(3)])
		default:
			b := []byte("keyshare")[:r.Intn(9)]
			for j := r.Intn(4); j > 0; j-- {
				b = append(b, "\x00ab\x80\xff"[r.Intn(5)])
			}
			key = string(b)
		}
		out[i] = textRecord{Key: key, Payload: int64(lo + i)}
	}
}

// TestSortByMatchesComposition is SortBy's output oracle: on a generated
// source it equals SortByKeyOrdered(KeyBy(...)) and the unfused
// composition, record for record, including partitions of at most 16
// records, empty inputs and empty range partitions. Repartition equals
// its composition on the same inputs.
func TestSortByMatchesComposition(t *testing.T) {
	prop := func(seed int64, size uint16, srcParts uint8) bool {
		n := int(size) % 700
		sp := 1 + int(srcParts)%48
		app := func() *cluster.App {
			conf := cluster.DefaultConf()
			conf.CoresPerExecutor = 4
			conf.DefaultParallelism = 8
			conf.Seed = seed
			return cluster.New(conf)
		}
		input := func(a *cluster.App) *rdd.RDD[textRecord] {
			return rdd.GenerateBatch(a, "in", n, sp, edgeKeys)
		}
		for _, parts := range []int{1, 4, 7} {
			got := rdd.Collect(rdd.SortBy(input(app()), textKey, parts))
			if want := rdd.Collect(rdd.SortByKeyOrdered(rdd.KeyBy(input(app()), textKey), parts)); !reflect.DeepEqual(got, want) {
				t.Logf("seed %d, %d records in %d partitions, %d parts: SortBy differs from SortByKeyOrdered(KeyBy)", seed, n, sp, parts)
				return false
			}
			if want := rdd.Collect(rdd.UnfusedSortBy(input(app()), textKey, parts)); !reflect.DeepEqual(got, want) {
				t.Logf("seed %d, %d records in %d partitions, %d parts: SortBy differs from the unfused composition", seed, n, sp, parts)
				return false
			}
			got2 := rdd.Collect(rdd.Repartition(input(app()), parts))
			if want := rdd.Collect(rdd.UnfusedRepartition(input(app()), parts)); !reflect.DeepEqual(got2, want) {
				t.Logf("seed %d, %d records in %d partitions, %d parts: Repartition differs from its composition", seed, n, sp, parts)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSortByKeyMatchesComposition pins the comparator sort, and SortBy
// over inputs that are not sources — a mapped one and a cached one — to
// the unfused composition.
func TestSortByKeyMatchesComposition(t *testing.T) {
	for _, n := range []int{0, 5, 300} {
		for _, parts := range []int{1, 4, 7} {
			pairs := func() *rdd.RDD[rdd.Pair[string, textRecord]] {
				recs := rdd.GenerateBatch(newApp(), "in", n, 6, edgeKeys)
				return rdd.KeyBy(rdd.Map(recs, func(t textRecord) textRecord { return t }), textKey)
			}
			less := func(a, b string) bool { return a < b }
			want := rdd.Collect(rdd.UnfusedSortByKey(pairs(), less, parts))
			if got := rdd.Collect(rdd.SortByKey(pairs(), less, parts)); !reflect.DeepEqual(got, want) {
				t.Errorf("%d records, %d parts: SortByKey differs from the unfused composition", n, parts)
			}
			mapped := rdd.Map(rdd.GenerateBatch(newApp(), "in", n, 6, edgeKeys), func(t textRecord) textRecord { return t })
			if got := rdd.Collect(rdd.SortBy(mapped, textKey, parts)); !reflect.DeepEqual(got, want) {
				t.Errorf("%d records, %d parts: SortBy over a mapped input differs", n, parts)
			}
			cached := rdd.Cache(rdd.GenerateBatch(newApp(), "in", n, 6, edgeKeys))
			if got := rdd.Collect(rdd.SortBy(cached, textKey, parts)); !reflect.DeepEqual(got, want) {
				t.Errorf("%d records, %d parts: SortBy over a cached input differs", n, parts)
			}
		}
	}
}

// ledger is everything a run's virtual ledger records, and what its
// generated input asked of the application's GenStore.
type ledger struct {
	bytes   int64
	elapsed sim.Time
	metrics telemetry.RunMetrics
	t2, t3  memsim.Counters
	engine  map[string]int64
	gen     []rdd.GenCount
}

// textInput generates HiBench-style text records: 10-character keys.
func textInput(r *rand.Rand, lo, _ int, out []textRecord) {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	for i := range out {
		var key [10]byte
		for j := range key {
			key[j] = alphabet[r.Intn(len(alphabet))]
		}
		out[i] = textRecord{Key: string(key[:]), Payload: int64(lo + i)}
	}
}

// textGen is textInput as a registered generator, whose partitions the
// application's GenStore keeps.
var textGen = rdd.Generator[textRecord, struct{}]{ID: "test-text",
	Fill: func(_ struct{}, _ int64, r *rand.Rand, lo, hi int, out []textRecord) { textInput(r, lo, hi, out) }}

// source is a pipeline's input of n records on app.
type source func(app *cluster.App, n int) *rdd.RDD[textRecord]

// sources are the two ways a workload's input is generated: afresh on
// every read, and through the application's GenStore.
var sources = map[string]source{
	"batch": func(app *cluster.App, n int) *rdd.RDD[textRecord] {
		return rdd.GenerateBatch(app, "input", n, 0, textInput)
	},
	"generator": func(app *cluster.App, n int) *rdd.RDD[textRecord] {
		return textGen.Source(app, "input", struct{}{}, n, 0)
	},
}

// pipeline is a workload's dataflow over its generated input.
type pipeline func(app *cluster.App, data *rdd.RDD[textRecord]) int64

var fusedPipelines = map[string][2]pipeline{
	"sort": {
		func(app *cluster.App, data *rdd.RDD[textRecord]) int64 {
			return rdd.SaveAsSink(rdd.SortBy(data, textKey, 0))
		},
		func(app *cluster.App, data *rdd.RDD[textRecord]) int64 {
			return rdd.SaveAsSink(rdd.UnfusedSortBy(data, textKey, 0))
		},
	},
	"repartition": {
		func(app *cluster.App, data *rdd.RDD[textRecord]) int64 {
			return rdd.SaveAsSink(rdd.Repartition(data, app.DefaultParallelism()))
		},
		func(app *cluster.App, data *rdd.RDD[textRecord]) int64 {
			return rdd.SaveAsSink(rdd.UnfusedRepartition(data, app.DefaultParallelism()))
		},
	},
}

// runLedger runs p over n records from src on a Tier 2 cluster of the
// given layout and returns its ledger and the start times of its stages.
func runLedger(p pipeline, src source, n, executors, cores, workers int, plan *faults.Plan) (ledger, []sim.Time) {
	conf := cluster.DefaultConf()
	conf.Executors = executors
	conf.CoresPerExecutor = cores
	conf.DefaultParallelism = 80
	conf.Binding = numa.BindingForTier(memsim.Tier2)
	conf.TaskParallelism = workers
	conf.Faults = plan
	app := cluster.New(conf)
	rec := app.EnableTracing()
	bytes := p(app, src(app, n))
	gen, _ := app.GenStore().Counts()
	var starts []sim.Time
	for _, s := range rec.Spans() {
		starts = append(starts, s.Start)
	}
	return ledger{
		bytes:   bytes,
		elapsed: app.Elapsed(),
		metrics: app.Metrics(),
		t2:      app.System().Tier(memsim.Tier2).Counters(),
		t3:      app.System().Tier(memsim.Tier3).Counters(),
		engine:  app.EngineCounters().Snapshot(),
		gen:     gen,
	}, starts
}

// TestFusedLedgerMatchesComposition is the ledger rule of the fused sort
// and repartition: at the workloads' tiny and small input sizes, over a
// GenerateBatch input and a Generator.Source one, on the 1x40 and 4x10
// layouts, at 1 and 8 phase-1 workers, the fused pipeline's elapsed time,
// run metrics, Tier 2 and Tier 3 counters, engine counters and GenStore
// asks equal the unfused composition's — fault-free, under injected task
// failures, and under an executor crash that loses the shuffle just
// before the final stage, so the map stage is resubmitted and its tasks
// read their input again: generated afresh, or the store's kept page.
func TestFusedLedgerMatchesComposition(t *testing.T) {
	sizes := map[string][2]int{"sort": {320, 32_000}, "repartition": {32, 32_000}}
	for name, p := range fusedPipelines {
		for srcName, src := range sources {
			for si, n := range sizes[name] {
				for _, layout := range [][2]int{{1, 40}, {4, 10}} {
					// The crash lands on the last executor just before the
					// final stage of the fault-free run.
					_, starts := runLedger(p[0], src, n, layout[0], layout[1], 1, nil)
					crash := &faults.Plan{Crashes: []faults.Crash{{Exec: layout[0] - 1, At: starts[len(starts)-1] - 1, Replace: true}}}
					plans := map[string]*faults.Plan{
						"fault-free":    nil,
						"task-failures": {TaskFailureRate: 0.3, MaxTaskFailures: 16},
						"crash":         crash,
					}
					for planName, plan := range plans {
						for _, workers := range []int{1, 8} {
							label := fmt.Sprintf("%s/%s/size%d/%dx%d/%s/%d-workers", name, srcName, si, layout[0], layout[1], planName, workers)
							fused, _ := runLedger(p[0], src, n, layout[0], layout[1], workers, plan)
							unfused, _ := runLedger(p[1], src, n, layout[0], layout[1], workers, plan)
							if !reflect.DeepEqual(fused, unfused) {
								t.Errorf("%s: fused ledger differs from the composition:\nfused   %+v\nunfused %+v", label, fused, unfused)
							}
							if planName == "crash" && fused.engine["recovery.stage_resubmissions"] == 0 {
								t.Errorf("%s: the crash resubmitted no map stage (vacuous scenario): %v", label, fused.engine)
							}
							if planName == "task-failures" && fused.engine["recovery.task_retries"] == 0 {
								t.Errorf("%s: no task was retried (vacuous scenario)", label)
							}
							// The sort reads its input in two jobs, and a
							// resubmitted map stage reads it again.
							reread := name == "sort" || planName == "crash"
							if srcName == "generator" && reread && (len(fused.gen) != 1 || fused.gen[0].Asked <= fused.gen[0].Filled) {
								t.Errorf("%s: GenStore counts %+v, want test-text pages asked again after their fill", label, fused.gen)
							}
						}
					}
				}
			}
		}
	}
}
