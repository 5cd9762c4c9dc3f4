package hibench

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/executor"
	"repro/internal/faults"
	"repro/internal/memsim"
	"repro/internal/rdd"
	"repro/internal/workloads"
)

func TestRunSpecDefaults(t *testing.T) {
	s := RunSpec{Workload: "sort"}.WithDefaults()
	if s.Executors != 1 || s.CoresPerExecutor != 40 {
		t.Fatalf("default layout = %dx%d, want 1x40", s.Executors, s.CoresPerExecutor)
	}
	if s.Parallelism != 80 {
		t.Fatalf("default parallelism = %d, want 80", s.Parallelism)
	}
	if s.Seed != 1 {
		t.Fatalf("default seed = %d", s.Seed)
	}
}

func TestRunSpecString(t *testing.T) {
	s := RunSpec{Workload: "lda", Size: workloads.Large, Tier: memsim.Tier2,
		Executors: 4, CoresPerExecutor: 10}
	if got := s.String(); !strings.Contains(got, "lda/large") || !strings.Contains(got, "4x10") {
		t.Fatalf("spec string = %q", got)
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := Run(RunSpec{Workload: "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunInvalidConf(t *testing.T) {
	_, err := Run(RunSpec{Workload: "sort", Executors: 3, CoresPerExecutor: 40})
	if err == nil {
		t.Fatal("120-core layout accepted on an 80-thread machine")
	}
	if !strings.Contains(err.Error(), "cores") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// runValid executes a cell that the test knows is valid, failing the test
// on an unexpected error.
func runValid(tb testing.TB, spec RunSpec) RunResult {
	tb.Helper()
	res, err := Run(spec)
	if err != nil {
		tb.Fatalf("run %s: %v", spec, err)
	}
	return res
}

func TestRunProducesFullRecord(t *testing.T) {
	res := runValid(t, RunSpec{Workload: "repartition", Size: workloads.Tiny, Tier: memsim.Tier2})
	if res.Duration <= 0 {
		t.Error("no duration")
	}
	if res.Metrics.Tasks == 0 || res.Metrics.Stages == 0 {
		t.Error("no scheduler stats")
	}
	if res.Summary.Records == 0 {
		t.Error("no workload summary")
	}
	if res.BoundEnergy.TotalJ <= 0 || res.DRAMEnergy.TotalJ <= 0 || res.DCPMEnergy.TotalJ <= 0 {
		t.Error("energy reports missing")
	}
	if res.NVMCounters.MediaReads+res.NVMCounters.MediaWrites == 0 {
		t.Error("tier-2 run recorded no NVM accesses")
	}
	if res.BoundEnergy.Kind != memsim.DCPM {
		t.Errorf("bound tier kind = %v, want DCPM", res.BoundEnergy.Kind)
	}
}

func TestRunWithPlacementSplitsTraffic(t *testing.T) {
	p := executor.Placement{Heap: memsim.Tier0, Shuffle: memsim.Tier2, Cache: memsim.Tier0}
	res := runValid(t, RunSpec{Workload: "repartition", Size: workloads.Small,
		Tier: memsim.Tier0, Placement: &p})
	if res.NVMCounters.MediaReads+res.NVMCounters.MediaWrites == 0 {
		t.Fatal("shuffle-on-NVM placement produced no NVM accesses")
	}
	if res.NVMCounters.MediaReads+res.NVMCounters.MediaWrites >= res.Metrics.MediaReads+res.Metrics.MediaWrites {
		t.Fatal("placement sent everything to NVM; heap should stay on DRAM")
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	spec := RunSpec{Workload: "bayes", Size: workloads.Tiny, Tier: memsim.Tier1, Seed: 5}
	a := runValid(t, spec)
	b := runValid(t, spec)
	if a.Duration != b.Duration {
		t.Fatalf("durations differ: %v vs %v", a.Duration, b.Duration)
	}
	if a.Metrics.MediaReads != b.Metrics.MediaReads {
		t.Fatal("counters differ across identical runs")
	}
}

// A fault plan that exhausts the recovery budget must surface as an
// ordinary error carrying the typed abort — never a panic, never a
// half-filled result.
func TestRunSurfacesJobAbort(t *testing.T) {
	res, err := Run(RunSpec{
		Workload: "sort", Size: workloads.Tiny, Tier: memsim.Tier0,
		// Rate 0.9 with a cap of 1 fails some task's only retry almost
		// surely on the first stage.
		Faults: &faults.Plan{TaskFailureRate: 0.9, MaxTaskFailures: 1},
	})
	if err == nil {
		t.Fatal("exhausted fault plan returned no error")
	}
	var aborted *faults.JobAbortedError
	if !errors.As(err, &aborted) {
		t.Fatalf("error %v does not wrap *faults.JobAbortedError", err)
	}
	if res.Summary.Records != 0 {
		t.Fatalf("aborted run returned a partial result: %+v", res.Summary)
	}
	if !strings.Contains(err.Error(), "sort") {
		t.Fatalf("abort error does not name the cell: %v", err)
	}
}

// A survivable fault plan still produces the full record, including the
// engine counter snapshot with the recovery family populated.
func TestRunRecordsRecoveryCounters(t *testing.T) {
	res := runValid(t, RunSpec{
		Workload: "sort", Size: workloads.Tiny, Tier: memsim.Tier0,
		Faults: &faults.Plan{TaskFailureRate: 0.3, MaxTaskFailures: 16},
	})
	if res.Engine["recovery.task_retries"] == 0 {
		t.Fatalf("rate-0.3 run recorded no task retries: %v", res.Engine)
	}
	if res.Engine["tasks.computed"] == 0 {
		t.Fatalf("engine snapshot missing task counts: %v", res.Engine)
	}
	clean := runValid(t, RunSpec{Workload: "sort", Size: workloads.Tiny, Tier: memsim.Tier0})
	if clean.Summary != res.Summary {
		t.Fatal("task retries changed workload results")
	}
	if clean.Duration >= res.Duration {
		t.Fatalf("retries were free: %v vs clean %v", res.Duration, clean.Duration)
	}
}

// TestRunSharedMatchesRun: a run whose generated partitions come from a
// store other runs filled — other layouts, a fault plan that retries
// tasks over the shared pages — returns exactly what Run returns, and no
// run writes a page it read.
func TestRunSharedMatchesRun(t *testing.T) {
	store := rdd.NewGenStore(2*3*len(workloads.Names()), true)
	for _, w := range workloads.Names() {
		for _, spec := range []RunSpec{
			{Workload: w, Size: workloads.Tiny, Tier: memsim.Tier2},
			{Workload: w, Size: workloads.Tiny, Tier: memsim.Tier0, Executors: 4, CoresPerExecutor: 10},
			{Workload: w, Size: workloads.Tiny, Tier: memsim.Tier2, Faults: &faults.Plan{TaskFailureRate: 0.3, MaxTaskFailures: 16}},
		} {
			want, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				got, err := RunShared(spec, store)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s pass %d: the shared run differs from Run", spec, pass)
				}
			}
		}
	}
	if err := store.Verify(); err != nil {
		t.Error(err)
	}
	counts, _ := store.Counts()
	for _, c := range counts {
		if c.Filled == 0 || c.Filled >= c.Asked {
			t.Errorf("%s: %d filled of %d asked; want each partition filled once and read again", c.Gen, c.Filled, c.Asked)
		}
	}
}
