package workloads

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/sim"
)

// pinnedRun is one cell's ledger digest — over the summary, elapsed
// virtual time, run metrics, Tier 2 and Tier 3 counters and engine
// counters, leaving out the stages.* family, which counts how the host
// ran a stage (sequential or parallel) — with the engine counters and the
// run's stage spans.
type pinnedRun struct {
	digest string
	engine map[string]int64
	names  []string
	starts []sim.Time
}

// runPinned runs one workload cell on a Tier 2 cluster of the given layout.
func runPinned(w Workload, size Size, executors, cores, workers int, plan *faults.Plan) pinnedRun {
	conf := cluster.DefaultConf()
	conf.Executors = executors
	conf.CoresPerExecutor = cores
	conf.DefaultParallelism = 80
	conf.Binding = numa.BindingForTier(memsim.Tier2)
	conf.TaskParallelism = workers
	conf.Faults = plan
	app := cluster.New(conf)
	rec := app.EnableTracing()
	s := w.Run(app, size)
	run := pinnedRun{engine: app.EngineCounters().Snapshot()}
	virtual := map[string]int64{}
	for k, v := range run.engine {
		if !strings.HasPrefix(k, "stages.") {
			virtual[k] = v
		}
	}
	ledger := fmt.Sprintf("%#v|%d|%#v|%#v|%#v|%v", s, app.Elapsed(), app.Metrics(),
		app.System().Tier(memsim.Tier2).Counters(), app.System().Tier(memsim.Tier3).Counters(), virtual)
	run.digest = fmt.Sprintf("%x", sha256.Sum256([]byte(ledger)))[:16]
	for _, sp := range rec.Spans() {
		if sp.Category == "stage" {
			run.names = append(run.names, sp.Name)
			run.starts = append(run.starts, sp.Start)
		}
	}
	return run
}

// crashBeforeReduce places a crash of the last executor just before the
// last stage that reads a shuffle, so the loss of its map outputs surfaces
// as a fetch failure and a map-stage resubmission. A workload with no
// shuffle (rf) gets the crash before its last stage instead, where it
// loses cached blocks. ok reports whether the stage reads a shuffle.
func crashBeforeReduce(executors int, names []string, starts []sim.Time) (plan *faults.Plan, ok bool) {
	at := starts[len(starts)-1]
	for i := len(names) - 1; i > 0; i-- {
		if !strings.HasPrefix(names[i], "map stage") && strings.HasPrefix(names[i-1], "map stage") {
			at, ok = starts[i], true
			break
		}
	}
	return &faults.Plan{Crashes: []faults.Crash{{Exec: executors - 1, At: at - 1, Replace: true}}}, ok
}

// ledgerPins holds each cell's ledger digest as the workloads produced it
// before their histogram, FlatMap and hash-aggregation data paths were
// rewritten: a host-side rewrite must leave every one unchanged, at any
// worker count, fault-free, under injected task failures and across a
// crash that resubmits a map stage. A change that means to move the
// ledger copies the new table lines from the test's failure output.
var ledgerPins = map[string]string{
	"als/small/1x40/crash":              "924fc3834504815b",
	"als/small/1x40/fault-free":         "eaf1ff59ad586583",
	"als/small/1x40/task-failures":      "4ddfc49368681253",
	"als/small/4x10/crash":              "af67d766296fa35f",
	"als/small/4x10/fault-free":         "81334f7112cdb628",
	"als/small/4x10/task-failures":      "adb1afd0d9143f08",
	"als/tiny/1x40/crash":               "b33c5cda11b4301d",
	"als/tiny/1x40/fault-free":          "c2c30c87187fccba",
	"als/tiny/1x40/task-failures":       "ddb08d502d369f11",
	"als/tiny/4x10/crash":               "27ffb7494486663d",
	"als/tiny/4x10/fault-free":          "f6f08d5ff3ddca80",
	"als/tiny/4x10/task-failures":       "f543b7850cf29105",
	"bayes/small/1x40/crash":            "06687b45d3b187cb",
	"bayes/small/1x40/fault-free":       "9473c692bff3ae50",
	"bayes/small/1x40/task-failures":    "79950026c5bbcc1e",
	"bayes/small/4x10/crash":            "70526ee8df5a8313",
	"bayes/small/4x10/fault-free":       "d982d783fd6489ab",
	"bayes/small/4x10/task-failures":    "6ec5616ce3be50b7",
	"bayes/tiny/1x40/crash":             "bad35f36784344cf",
	"bayes/tiny/1x40/fault-free":        "a530a96d28ba536e",
	"bayes/tiny/1x40/task-failures":     "b918dd2fc78a5f00",
	"bayes/tiny/4x10/crash":             "7aa25b7172c8f649",
	"bayes/tiny/4x10/fault-free":        "fa0b083d2e74858a",
	"bayes/tiny/4x10/task-failures":     "5da568ea056e9603",
	"pagerank/small/1x40/crash":         "be1338e12e409370",
	"pagerank/small/1x40/fault-free":    "b76e49a9f7fa697c",
	"pagerank/small/1x40/task-failures": "6d37ffbbec873dc5",
	"pagerank/small/4x10/crash":         "744f7da322135b11",
	"pagerank/small/4x10/fault-free":    "c75cc68a4f613b80",
	"pagerank/small/4x10/task-failures": "b25f94e93502a7da",
	"pagerank/tiny/1x40/crash":          "9d0b51f8d8397693",
	"pagerank/tiny/1x40/fault-free":     "eb02e28d61029969",
	"pagerank/tiny/1x40/task-failures":  "9e3addcca498be81",
	"pagerank/tiny/4x10/crash":          "5a3404ca545f2ef4",
	"pagerank/tiny/4x10/fault-free":     "7e1151311c4d984a",
	"pagerank/tiny/4x10/task-failures":  "8a884b6e11152470",
	"rf/small/1x40/crash":               "7eed1153f844d083",
	"rf/small/1x40/fault-free":          "2bf13e106f5a2ae7",
	"rf/small/1x40/task-failures":       "a7b136824d3ee2c9",
	"rf/small/4x10/crash":               "9191695cac2f88c8",
	"rf/small/4x10/fault-free":          "9280e42dab30eee5",
	"rf/small/4x10/task-failures":       "c13de261f1126d1c",
	"rf/tiny/1x40/crash":                "672881898db86b87",
	"rf/tiny/1x40/fault-free":           "3ac533e85a0a769b",
	"rf/tiny/1x40/task-failures":        "1dd6ca0d832c9d97",
	"rf/tiny/4x10/crash":                "167efbc7c2d94f5c",
	"rf/tiny/4x10/fault-free":           "30017ee97ff95cf1",
	"rf/tiny/4x10/task-failures":        "5931c65854a23ed1",
}

func TestLedgerPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("ledger pins skipped in -short")
	}
	for _, name := range []string{"rf", "pagerank", "bayes", "als"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []Size{Tiny, Small} {
			for _, layout := range [][2]int{{1, 40}, {4, 10}} {
				base := runPinned(w, size, layout[0], layout[1], 1, nil)
				crash, shuffled := crashBeforeReduce(layout[0], base.names, base.starts)
				if !shuffled && name != "rf" {
					t.Fatalf("%s/%s: no stage reads a shuffle: %v", name, size, base.names)
				}
				plans := []struct {
					name string
					plan *faults.Plan
				}{
					{"fault-free", nil},
					{"task-failures", &faults.Plan{TaskFailureRate: 0.3, MaxTaskFailures: 16}},
					{"crash", crash},
				}
				for _, p := range plans {
					label := fmt.Sprintf("%s/%s/%dx%d/%s", name, size, layout[0], layout[1], p.name)
					var first string
					for _, workers := range []int{1, 8} {
						run := runPinned(w, size, layout[0], layout[1], workers, p.plan)
						digest := run.digest
						switch {
						case p.name == "task-failures" && run.engine["recovery.task_retries"] == 0:
							t.Errorf("%s: no task was retried (vacuous scenario)", label)
						case p.name == "crash" && run.engine["recovery.executor_crashes"] != 1:
							t.Errorf("%s: the executor did not crash (vacuous scenario): %v", label, run.engine)
						case p.name == "crash" && shuffled && run.engine["recovery.stage_resubmissions"] == 0:
							t.Errorf("%s: the crash resubmitted no map stage (vacuous scenario): %v", label, run.engine)
						}
						if workers > 1 {
							if digest != first {
								t.Errorf("%s: %d workers digest %s, 1 worker %s", label, workers, digest, first)
							}
							continue
						}
						first = digest
						if want, ok := ledgerPins[label]; !ok {
							t.Errorf("no pinned digest; table line:\n%q: %q,", label, digest)
						} else if digest != want {
							t.Errorf("ledger digest moved from %s; table line:\n%q: %q,", want, label, digest)
						}
					}
				}
			}
		}
	}
}
