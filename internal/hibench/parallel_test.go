package hibench

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/workloads"
)

// Every catalog workload must produce the same whole RunResult — virtual
// time, metrics, energy, engine counters and all — whether phase-1 task
// computation runs sequentially or on 8 workers, on the default layout
// and at 2x4 with and without a replacing executor crash. Only the spec's
// TaskParallelism, which asked for the difference, may differ. This sweep
// is also the -race workhorse: it drives every workload's compute
// closures through the concurrent path.
func TestAllWorkloadsParallelismInvariant(t *testing.T) {
	crash := &faults.Plan{Crashes: []faults.Crash{{Exec: 1, At: 1, Replace: true}}}
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			cells := []struct {
				label string
				spec  RunSpec
			}{
				{"1x40", RunSpec{Workload: name, Size: workloads.Tiny}},
				{"2x4", RunSpec{Workload: name, Size: workloads.Tiny, Executors: 2, CoresPerExecutor: 4}},
				{"2x4 crash", RunSpec{Workload: name, Size: workloads.Tiny, Executors: 2, CoresPerExecutor: 4, Faults: crash}},
			}
			for _, c := range cells {
				var runs [2]RunResult
				for i, workers := range []int{1, 8} {
					c.spec.TaskParallelism = workers
					runs[i] = runValid(t, c.spec)
					runs[i].Spec.TaskParallelism = 0
				}
				if !reflect.DeepEqual(runs[0], runs[1]) {
					t.Errorf("%s: 8 workers\n%+v\nsequential\n%+v", c.label, runs[1], runs[0])
				}
				if c.spec.Faults != nil && runs[0].Engine["recovery.executors_replaced"] != 1 {
					t.Errorf("%s: no executor was replaced (vacuous scenario): %v", c.label, runs[0].Engine)
				}
			}
		})
	}
}
