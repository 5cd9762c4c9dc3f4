package bench

import (
	"runtime"
	"testing"
)

// BenchmarkWallclock reports every case's ns/op, B/op and allocs/op, e.g.:
//
//	go test -run '^$' -bench 'Wallclock/micro/tickStorm' -benchtime 3x -benchmem ./bench
//
// with go test's own -cpuprofile and -memprofile for a profile of the run.
// One untimed warm-up iteration runs first, so one-time setup
// (registration, page faults, catalog builds, the micro inputs) stays out
// of the numbers.
func BenchmarkWallclock(b *testing.B) {
	for _, c := range Cases() {
		b.Run(c.Name, func(b *testing.B) {
			c.Iter()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Iter()
			}
		})
	}
}

// allocCeilings is the most allocations one iteration of each case may
// make: a tripwire on the chunk-shuffle hot paths, the ML and websearch
// workloads, the tiering tick at 256 and at 4 x 4096 blocks, one stage
// replay on a warm pool (which allocates nothing), a warm advisor query,
// and the end-to-end report, where about 0.46M allocations with cells
// shared between figures become 0.92M without.
var allocCeilings = map[string]uint64{
	"micro/reduceByKey":    470,
	"workload/sort":        3600,
	"workload/repartition": 2350,
	"workload/als":         12600,
	"workload/bayes":       8300,
	"workload/lda":         4650,
	"workload/rf":          10300,
	"workload/pagerank":    36900,
	"micro/groupByKey":     490,
	"micro/migrationEpoch": 1070,
	"micro/tickStorm":      247000,
	"micro/advisorHit":     88,
	"micro/simulateStage":  8,
	"e2e/reproduce":        570000,
}

// TestAllocCeilings runs every case once to warm it up (registration,
// page faults, catalog builds, the micro inputs), collects garbage, then
// counts the heap allocations of one more iteration against the case's
// ceiling. It runs at the default GOMAXPROCS, so the phase-1 fan-out
// allocates what it does in a real run (testing.AllocsPerRun would pin
// one proc). A case without a ceiling, or a ceiling naming no case, fails
// too, so a renamed case cannot slip its ceiling.
func TestAllocCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every harness case")
	}
	named := map[string]bool{}
	for _, c := range Cases() {
		named[c.Name] = true
		t.Run(c.Name, func(t *testing.T) {
			ceiling, ok := allocCeilings[c.Name]
			if !ok {
				t.Fatalf("case %s has no allocation ceiling", c.Name)
			}
			c.Iter()
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c.Iter()
			runtime.ReadMemStats(&after)
			got := after.Mallocs - before.Mallocs
			if got > ceiling {
				t.Fatalf("%s: %d allocs/op exceeds its ceiling %d: per-record allocation crept back into a hot path, or e2e/reproduce stopped sharing cells between figures",
					c.Name, got, ceiling)
			}
			t.Logf("%s: %d allocs/op, ceiling %d", c.Name, got, ceiling)
		})
	}
	for name, ceiling := range allocCeilings {
		if !named[name] {
			t.Errorf("ceiling %s=%d names no case", name, ceiling)
		}
	}
}
