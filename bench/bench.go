// Package bench is the wall-clock harness for the host-performance
// ledger. The simulator has two ledgers (see DESIGN.md): the virtual one
// — charged bytes and virtual time, frozen and byte-identical across
// refactors — and the host one — how fast the Go process computes the
// virtual ledger. This package measures the host ledger: ns/op,
// allocs/op and bytes/op for each Table II workload plus shuffle
// micro-benchmarks, so every performance PR is judged against committed
// numbers (BENCH_wallclock.json) instead of anecdotes.
package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/hibench"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/rdd"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Case is one wall-clock benchmark: Iter executes a single iteration of
// the measured work. Cases run identically under `go test -bench` (see
// bench_test.go) and `repro bench`.
type Case struct {
	Name string
	Iter func()
}

// Result is one measured case, averaged over the run's iterations.
type Result struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
}

// Cases enumerates the harness: every Table II workload at small size on
// Tier 2 (the paper's DCPM tier), plus micro-benchmarks isolating the
// shuffle aggregation paths (reduceByKey's combine pipeline and
// groupByKey's ship-everything pipeline) where per-record overheads
// dominate, the tiering engine's epoch loop at two scales, a warm advisor
// query, one stage replay on a warm pool, and one end-to-end case: the
// report a user waits for.
func Cases() []Case {
	var cases []Case
	for _, w := range workloads.Names() {
		w := w
		cases = append(cases, Case{
			Name: "workload/" + w,
			// Every iteration runs one spec, so through hibench.Run all but
			// the first would read the pages its slot kept; a cold store of
			// the run's own keeps the case measuring generation, and the
			// -max-allocs ceilings CI sets on it keep their meaning.
			Iter: func() {
				if _, err := hibench.RunShared(hibench.RunSpec{
					Workload: w, Size: workloads.Small, Tier: memsim.Tier2,
				}, nil); err != nil {
					panic(fmt.Sprintf("bench %s: %v", w, err))
				}
			},
		})
	}
	cases = append(cases,
		Case{Name: "micro/reduceByKey", Iter: microReduceByKey},
		Case{Name: "micro/groupByKey", Iter: microGroupByKey},
		Case{Name: "micro/migrationEpoch", Iter: microMigrationEpoch},
		Case{Name: "micro/tickStorm", Iter: microTickStorm},
		Case{Name: "micro/advisorHit", Iter: microAdvisorHit},
		Case{Name: "micro/simulateStage", Iter: microSimulateStage},
		Case{Name: "e2e/reproduce", Iter: e2eReproduce},
	)
	return cases
}

// e2eReproduce renders core.Reproduce, Figure 4 included, on the roster
// the repository benchmark's reproduce workload uses (benchmark/sizing.go):
// small enough to iterate (~3 s), wide enough that every figure shares
// cells with Figure 2. Its allocs/op is near-deterministic, so a ceiling
// on it trips when cells stop being shared, without timing noise.
func e2eReproduce() {
	var report bytes.Buffer
	core.Reproduce(&report, core.ReproduceOptions{Workloads: []string{"als", "lda"}})
	if report.Len() < 1000 {
		panic(fmt.Sprintf("bench e2e/reproduce: report is %d bytes", report.Len()))
	}
}

// microApp builds a minimal cluster app for the rdd-level micros.
func microApp() *cluster.App {
	conf := cluster.DefaultConf()
	conf.CoresPerExecutor = 4
	conf.DefaultParallelism = 8
	return cluster.New(conf)
}

const (
	microRecords = 200_000
	microKeys    = 4096
)

// microWords is the reduceByKey input: dense string keys, generated on
// first use so input construction stays out of the measurement and out of
// the start-up of every command that imports this package.
var microWords = sync.OnceValue(func() []string {
	out := make([]string, microRecords)
	for i := range out {
		out[i] = fmt.Sprintf("key-%05d", i%microKeys)
	}
	return out
})

// microReduceByKey is the map-side-combining aggregation pipeline: the
// path through bucketize, localCombine, putBuckets and mergeSegments
// that dominates wordcount/bayes-shaped jobs.
func microReduceByKey() {
	app := microApp()
	words := rdd.Parallelize(app, "bench-words", microWords(), 0)
	pairs := rdd.Map(words, func(s string) rdd.Pair[string, int64] { return rdd.KV(s, int64(1)) })
	counts := rdd.ReduceByKey(pairs, func(a, b int64) int64 { return a + b }, 0)
	if got := len(rdd.Collect(counts)); got != microKeys {
		panic(fmt.Sprintf("bench reduceByKey: %d keys, want %d", got, microKeys))
	}
}

// microSamples is the groupByKey input, generated on first use.
var microSamples = sync.OnceValue(func() []int {
	out := make([]int, microRecords)
	for i := range out {
		out[i] = i
	}
	return out
})

// microGroupByKey is the no-map-side-combine pipeline: every record
// ships through bucketize/putBuckets and aggregates only on the reduce
// side, the als/groupByKey-shaped shuffle.
func microGroupByKey() {
	app := microApp()
	ids := rdd.Parallelize(app, "bench-ids", microSamples(), 0)
	pairs := rdd.Map(ids, func(i int) rdd.Pair[int, float64] {
		return rdd.KV(i%microKeys, float64(i))
	})
	groups := rdd.GroupByKey(pairs, 0)
	if got := len(rdd.Collect(groups)); got != microKeys {
		panic(fmt.Sprintf("bench groupByKey: %d keys, want %d", got, microKeys))
	}
}

// desRig is micro/simulateStage's warm pool and its 80-attempt stage on
// a 4 x 10 layout: 64 tasks with footprints on two tiers, every fourth on
// a straggling executor and raced by a speculative clone, so the replay's
// cpu, stall, drain and kill paths all run.
type desRig struct {
	k     *sim.Kernel
	pool  *executor.Pool
	tasks []executor.SimTask
}

var microDES = sync.OnceValue(func() desRig {
	k := sim.NewKernel()
	rig := desRig{k: k, pool: executor.NewPool(4, 10, numa.BindingForTier(memsim.Tier2), memsim.NewSystem(k), 0)}
	for i := 0; i < 64; i++ {
		var p executor.Profile
		p.CPUNS = float64(1e5 + 997*i)
		p.Tiers[memsim.Tier2] = executor.TierCost{StallLines: [2]float64{800, 200},
			SeqBytes: [2]int64{1 << 20, 1 << 18}, RandBytes: [2]int64{1 << 14, 1 << 12}}
		p.Tiers[memsim.Tier0] = executor.TierCost{StallLines: [2]float64{100, 0}, SeqBytes: [2]int64{1 << 16, 0}}
		rig.tasks = append(rig.tasks, executor.SimTask{Profile: p, ExecID: i % 4})
	}
	for i := 0; i < 64; i += 4 {
		rig.tasks[i].SlowFactor = 4
		clone := rig.tasks[i]
		clone.SlowFactor, clone.ExecID, clone.SpeculativeOf = 0, 1, i+1
		rig.tasks = append(rig.tasks, clone)
	}
	return rig
})

// microSimulateStage replays the 80-attempt stage on the warm pool: the
// discrete-event replay every cell's virtual time comes from, with its
// per-stage scratch and the kernel's and servers' slabs already grown.
func microSimulateStage() {
	rig := microDES()
	res := executor.SimulateStage(rig.k, rig.pool, rig.tasks, executor.DefaultCostModel())
	if res.Killed != 16 {
		panic(fmt.Sprintf("bench simulateStage: %d attempts killed, want 16", res.Killed))
	}
}

// Measure runs a case for the given iteration count, at least 1, and
// reports per-op wall-clock and allocation averages. One untimed warm-up
// iteration runs first so one-time setup (registration, page faults,
// catalog builds, the micro inputs) stays out of the numbers.
func Measure(c Case, iters int) Result {
	c.Iter()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sw := telemetry.StartStopwatch()
	for i := 0; i < iters; i++ {
		c.Iter()
	}
	elapsed := sw.Seconds()
	runtime.ReadMemStats(&after)
	n := int64(iters)
	return Result{
		Name:        c.Name,
		NsPerOp:     int64(elapsed*1e9) / n,
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / n,
	}
}
