package hibench

import (
	"testing"

	"repro/internal/workloads"
)

// Every catalog workload must produce bit-identical virtual-time results
// whether phase-1 task computation runs sequentially or on 8 workers. This
// sweep is also the -race workhorse: it drives every workload's compute
// closures through the concurrent path.
func TestAllWorkloadsParallelismInvariant(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			seq := runValid(t, RunSpec{Workload: name, Size: workloads.Tiny, TaskParallelism: 1})
			par := runValid(t, RunSpec{Workload: name, Size: workloads.Tiny, TaskParallelism: 8})
			if par.Duration != seq.Duration {
				t.Errorf("duration: 8 workers %v, sequential %v", par.Duration, seq.Duration)
			}
			if par.Metrics.MediaReads != seq.Metrics.MediaReads ||
				par.Metrics.MediaWrites != seq.Metrics.MediaWrites {
				t.Errorf("media traffic: 8 workers %d/%d, sequential %d/%d",
					par.Metrics.MediaReads, par.Metrics.MediaWrites,
					seq.Metrics.MediaReads, seq.Metrics.MediaWrites)
			}
			if par.Summary != seq.Summary {
				t.Errorf("summary: 8 workers %v, sequential %v", par.Summary, seq.Summary)
			}
		})
	}
}
