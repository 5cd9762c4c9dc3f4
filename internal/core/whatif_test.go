package core

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/memsim"
	"repro/internal/workloads"
)

func TestWhatIfScenariosWellFormed(t *testing.T) {
	scs := memsim.CapacityScenarios()
	if len(scs) < 3 {
		t.Fatalf("scenarios = %d, want >= 3", len(scs))
	}
	if scs[0].Name != "optane" {
		t.Fatal("first scenario must be the paper baseline")
	}
	for _, sc := range scs {
		spec := sc.Spec
		spec.ID = memsim.Tier2
		if err := spec.Validate(); err != nil {
			t.Errorf("%s spec invalid: %v", sc.Name, err)
		}
		if sc.Description == "" {
			t.Errorf("%s has no description", sc.Name)
		}
	}
}

// Future capacity tiers must close the DRAM/DCPM gap: both modeled
// technologies beat Optane, for every workload, and the baseline scenario
// reproduces the unmodified characterization.
func TestWhatIfClosesTheGap(t *testing.T) {
	if testing.Short() {
		t.Skip("what-if sweep skipped in -short")
	}
	names := []string{"lda", "pagerank"}
	results := must(sharedEval().WhatIf(names, workloads.Large, 1))
	byKey := map[[2]string]WhatIfResult{}
	for _, r := range results {
		byKey[[2]string{r.Scenario, r.Workload}] = r
	}
	for _, w := range names {
		base := byKey[[2]string{"optane", w}]
		cxl := byKey[[2]string{"cxl-dram", w}]
		gen2 := byKey[[2]string{"nvm-gen2", w}]
		t.Logf("%s: optane %.2fx, cxl %.2fx, gen2 %.2fx", w, base.Slowdown, cxl.Slowdown, gen2.Slowdown)
		if base.Slowdown <= 1 {
			t.Errorf("%s baseline slowdown %.2f not > 1", w, base.Slowdown)
		}
		if cxl.Slowdown >= base.Slowdown {
			t.Errorf("%s: CXL DRAM (%.2fx) should beat Optane (%.2fx)", w, cxl.Slowdown, base.Slowdown)
		}
		if gen2.Slowdown >= base.Slowdown {
			t.Errorf("%s: next-gen NVM (%.2fx) should beat Optane (%.2fx)", w, gen2.Slowdown, base.Slowdown)
		}
		// Local DRAM time is scenario-independent.
		if base.Local != cxl.Local || base.Local != gen2.Local {
			t.Errorf("%s: Tier 0 time varies across scenarios", w)
		}
	}
	tbl := WhatIfTable(results)
	if len(tbl.Rows) != len(names) {
		t.Fatalf("table rows = %d, want %d", len(tbl.Rows), len(names))
	}
	if len(tbl.Headers) != 4 {
		t.Fatalf("table headers = %d, want workload + 3 scenarios", len(tbl.Headers))
	}
}

// ProjectWear measures each workload's DCPM write rate on its Tier 2 run
// and extrapolates device lifetime under continuous operation, as a batch
// of its own; Reproduce answers the same plan inside the report's batch.
func (e *Evaluator) ProjectWear(names []string, size workloads.Size, seed int64) []WearReport {
	return must(wearPlan(names, size, seed).run(e))
}

// Write-heavy lda must wear the DCPM group much faster than compute-bound
// als, and projected lifetimes must be physically positive.
func TestWearProjection(t *testing.T) {
	if testing.Short() {
		t.Skip("wear projection skipped in -short")
	}
	reports := sharedEval().ProjectWear([]string{"lda", "als"}, workloads.Large, 1)
	lda, als := reports[0], reports[1]
	t.Logf("lda: %.1f MB/s -> %.0f years; als: %.1f MB/s -> %.0f years",
		lda.WriteBytesPerSec/1e6, lda.YearsToWearOut, als.WriteBytesPerSec/1e6, als.YearsToWearOut)
	if lda.WriteBytesPerSec <= als.WriteBytesPerSec {
		t.Error("lda must write faster than als")
	}
	if lda.YearsToWearOut >= als.YearsToWearOut {
		t.Error("lda must wear the device out sooner than als")
	}
	for _, r := range []WearReport{lda, als} {
		if r.YearsToWearOut <= 0 || r.WriteBytesPerSec <= 0 {
			t.Errorf("%s projection non-physical: %+v", r.Workload, r)
		}
	}
	tbl := WearTable(workloads.Tiny, sharedEval().ProjectWear([]string{"als"}, workloads.Tiny, 1))
	if len(tbl.Rows) != 1 {
		t.Fatalf("wear table rows = %d", len(tbl.Rows))
	}
}

// The headline conclusion must be robust: under every ±20% knob
// perturbation the tier ordering holds and the Tier 2 gap stays within a
// moderate band of the baseline.
func TestSensitivityRobustConclusions(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity analysis skipped in -short")
	}
	results, err := RunSensitivity([]string{"repartition", "bayes"}, workloads.Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	var baseline float64
	for _, r := range results {
		if r.Knob == "baseline" {
			baseline = r.T2Geomean
		}
	}
	if baseline <= 1.05 {
		t.Fatalf("baseline T2 geomean %.2f too small to analyze", baseline)
	}
	for _, r := range results {
		t.Logf("%-18s x%.1f: T2 %.2fx ordering=%v", r.Knob, r.Scale, r.T2Geomean, r.OrderingHolds)
		if !r.OrderingHolds {
			t.Errorf("%s x%.1f broke the tier ordering", r.Knob, r.Scale)
		}
		rel := r.T2Geomean / baseline
		if rel < 0.75 || rel > 1.35 {
			t.Errorf("%s x%.1f moved the T2 gap by %.0f%%; conclusions too knob-sensitive",
				r.Knob, r.Scale, (rel-1)*100)
		}
		if r.T2Geomean <= 1.0 {
			t.Errorf("%s x%.1f erased the DRAM/DCPM gap entirely", r.Knob, r.Scale)
		}
	}
	tbl := SensitivityTable(results)
	if len(tbl.Rows) != len(results) {
		t.Fatalf("table rows = %d", len(tbl.Rows))
	}
}

// An unknown workload name is the caller's error to handle, whether or
// not a flag parser stood in front of the library.
func TestSensitivityUnknownWorkload(t *testing.T) {
	results, err := RunSensitivity([]string{"sort", "nosuch"}, workloads.Tiny, 1)
	if err == nil || !strings.Contains(err.Error(), `"nosuch"`) || results != nil {
		t.Fatalf("RunSensitivity(nosuch) = %v, %v; want an error naming the workload", results, err)
	}
}

func TestReproduceNarrowed(t *testing.T) {
	if testing.Short() {
		t.Skip("reproduce smoke skipped in -short")
	}
	var buf bytes.Buffer
	var steps []string
	Reproduce(&buf, ReproduceOptions{
		Workloads:   []string{"als", "pagerank"},
		SkipScaling: true,
		Progress:    func(s string) { steps = append(steps, s) },
	})
	out := buf.String()
	for _, want := range []string{
		"Table I", "Table II", "Figure 2", "Figure 3", "Figure 5",
		"Figure 6", "predictor", "placement", "what-if",
	} {
		if !strings.Contains(strings.ToLower(out), strings.ToLower(want)) {
			t.Errorf("report missing section %q", want)
		}
	}
	// The order the benchmark's reproduce op checks its progress lines in.
	wantSteps := []string{"Table I", "Table II", "Figure 2", "guidelines", "Figure 3",
		"Figure 5", "Figure 6", "predictor", "extensions"}
	if !slices.Equal(steps, wantSteps) {
		t.Errorf("progress = %q, want %q", steps, wantSteps)
	}
	if strings.Contains(out, "Figure 4") {
		t.Error("Figure 4 rendered despite SkipScaling")
	}
}
