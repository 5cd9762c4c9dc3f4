package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/hibench"
	"repro/internal/memsim"
	"repro/internal/workloads"
)

func TestTableRender(t *testing.T) {
	tbl := Table{
		Title:   "demo",
		Headers: []string{"a", "long-header"},
	}
	tbl.AddRow("x", "1")
	tbl.AddRow("yyyy", "2")
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "long-header") {
		t.Fatalf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("rendered %d lines, want 5:\n%s", len(lines), out)
	}
	if F(1.23456) != "1.235" {
		t.Errorf("F(1.23456) = %q", F(1.23456))
	}
}

func smallCharacterization(t *testing.T) *Characterization {
	t.Helper()
	if testing.Short() {
		t.Skip("characterization skipped in -short")
	}
	return sharedEval().Characterization(
		[]string{"repartition", "als"},
		[]workloads.Size{workloads.Tiny, workloads.Small},
		nil, 1)
}

func TestCharacterizationAccessors(t *testing.T) {
	c := smallCharacterization(t)
	if len(c.Results) != 2*2*4 {
		t.Fatalf("matrix has %d cells, want 16", len(c.Results))
	}
	d := c.Duration("repartition", workloads.Tiny, memsim.Tier0)
	if d <= 0 {
		t.Fatal("zero duration cell")
	}
	if s := c.Slowdown("repartition", workloads.Tiny, memsim.Tier3); s <= 1 {
		t.Errorf("Tier3 slowdown %.2f should exceed 1", s)
	}
	if m := c.MeanSlowdown(memsim.Tier2); m <= 1 {
		t.Errorf("mean Tier2 slowdown %.2f should exceed 1", m)
	}
	if r := c.DCPMvsDRAMSlowdown(); r <= 1 {
		t.Errorf("DCPM/DRAM ratio %.2f should exceed 1", r)
	}
	if r := c.MeanEnergyRatio(); r <= 1 {
		t.Errorf("energy ratio %.2f should exceed 1", r)
	}
}

func TestCharacterizationTables(t *testing.T) {
	c := smallCharacterization(t)
	for _, tbl := range []Table{c.TimeTable(), c.AccessTable(), c.EnergyTable()} {
		if len(tbl.Rows) != 4 {
			t.Errorf("%s: %d rows, want 4", tbl.Title, len(tbl.Rows))
		}
		var buf bytes.Buffer
		tbl.Render(&buf)
		if buf.Len() == 0 {
			t.Errorf("%s rendered empty", tbl.Title)
		}
	}
}

func TestCharacterizationMissingCellPanics(t *testing.T) {
	c := &Characterization{Results: map[CellKey]hibench.RunResult{}}
	defer func() {
		if recover() == nil {
			t.Error("missing cell did not panic")
		}
	}()
	c.Duration("nope", workloads.Tiny, memsim.Tier0)
}

// Figure 3: in the unsaturated regime, tightening the MBA throttle must
// not move execution time — latency, not bandwidth, is the bottleneck
// (Takeaway 4). Every workload is flat under a mild cap; the non-streaming
// five stay flat down to a 40% cap. (The two pure-streaming micro
// benchmarks saturate the simulated DCPM channel below ~60% caps because
// the simulator compresses compute far more than data volume relative to
// the JVM testbed — a documented divergence, see EXPERIMENTS.md.)
func TestMBAFlatInUnsaturatedRegime(t *testing.T) {
	if testing.Short() {
		t.Skip("MBA sweep skipped in -short")
	}
	sweep := sharedEval().MBASweep(workloads.Names(), []float64{1.0, 0.8, 0.6, 0.4}, memsim.Tier2, 1)
	mild := sharedEval().MBASweep(workloads.Names(), []float64{1.0, 0.8}, memsim.Tier2, 1)
	for w, dev := range mild.Flatness() {
		t.Logf("%s: mean drift %.2f%% at an 80%% cap", w, dev*100)
		if dev > 0.08 {
			t.Errorf("%s: mean execution time drifts %.1f%% at an 80%% cap; should be flat", w, dev*100)
		}
	}
	nonStreaming := map[string]bool{"als": true, "rf": true, "lda": true, "pagerank": true, "bayes": true}
	for w, dev := range sweep.Flatness() {
		t.Logf("%s: max mean drift %.2f%% across caps >= 40%%", w, dev*100)
		if nonStreaming[w] && dev > 0.15 {
			t.Errorf("%s: mean execution time drifts %.1f%% under caps >= 40%%; should be flat", w, dev*100)
		}
	}
	if len(sweep.Points) != 7*4 {
		t.Fatalf("sweep has %d points, want 28", len(sweep.Points))
	}
	tbl := sweep.Table()
	if len(tbl.Rows) != 28 {
		t.Fatalf("table rows = %d", len(tbl.Rows))
	}
}

// Figure 4: the executor/core grid reproduces the paper's contrasts.
func TestScalingGridShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling grids skipped in -short")
	}
	prSmall := sharedEval().ScalingGrid("pagerank", workloads.Small, memsim.Tier2, nil, nil, 1)
	prLarge := sharedEval().ScalingGrid("pagerank", workloads.Large, memsim.Tier2, nil, nil, 1)

	// Takeaway 6: multiplying executors at full width slows the small
	// workload down noticeably.
	small8 := prSmall.Cell(8, 40).Speedup
	if small8 > 0.95 {
		t.Errorf("pagerank/small 8x5 speedup %.2f; executor co-operation should cost", small8)
	}
	// Takeaway 7: the large workload tolerates executor scaling much
	// better than the small one.
	large8 := prLarge.Cell(8, 40).Speedup
	t.Logf("pagerank 8-executor speedup: small %.2fx, large %.2fx", small8, large8)
	if large8 <= small8 {
		t.Errorf("pagerank large (%.2f) should tolerate executors better than small (%.2f)", large8, small8)
	}

	// The worst observed slowdown lands near the paper's 3.11x.
	worst := prSmall.WorstSlowdown()
	if worst < 1.5 || worst > 6 {
		t.Errorf("worst slowdown %.2fx outside (1.5, 6); paper reports up to 3.11x", worst)
	}

	// Infeasible layouts are marked invalid.
	if prSmall.Cell(8, 5).Valid {
		t.Error("8 executors on 5 cores should be invalid")
	}

	// lda barely moves across the feasible grid above 10 cores (Fig 4c).
	lda := sharedEval().ScalingGrid("lda", workloads.Small, memsim.Tier2, []int{1, 2}, []int{10, 20, 40}, 1)
	for _, e := range []int{1, 2} {
		for _, c := range []int{10, 20, 40} {
			s := lda.Cell(e, c).Speedup
			if s < 0.85 || s > 1.15 {
				t.Errorf("lda %dx%d speedup %.2f; Fig 4c shows insensitivity", e, c, s)
			}
		}
	}

	tbl := prSmall.Table()
	if len(tbl.Rows) != 4 {
		t.Fatalf("grid table rows = %d", len(tbl.Rows))
	}
}

// Figure 6: execution time correlates strongly positively with tier
// latency and strongly negatively with tier bandwidth, for every workload
// and size.
func TestSpecCorrelationSigns(t *testing.T) {
	if testing.Short() {
		t.Skip("spec correlation skipped in -short")
	}
	for _, w := range []string{"sort", "lda", "pagerank"} {
		for _, size := range []workloads.Size{workloads.Small, workloads.Large} {
			c := sharedEval().SpecCorrelation(w, size, 1)
			if c.LatencyR < 0.7 {
				t.Errorf("%s/%s latency r = %.2f, want strong positive", w, size, c.LatencyR)
			}
			if c.BandwidthR > -0.5 {
				t.Errorf("%s/%s bandwidth r = %.2f, want strong negative", w, size, c.BandwidthR)
			}
		}
	}
}

// Figure 5: system-level metrics correlate with execution time; bayes is
// among the most linearly predictable workloads.
func TestMetricCorrelation(t *testing.T) {
	if testing.Short() {
		t.Skip("metric correlation skipped in -short")
	}
	bayes := sharedEval().MetricCorrelation("bayes", []int64{1, 2, 3})
	if bayes.Runs != 9 {
		t.Fatalf("bayes correlation over %d runs, want 9", bayes.Runs)
	}
	if r := bayes.Corr["media_reads"]; math.IsNaN(r) || r < 0.7 {
		t.Errorf("bayes media_reads vs time r = %.2f, want near-linear", r)
	}
	if m := bayes.MeanAbsCorrelation(); m < 0.6 {
		t.Errorf("bayes mean |r| = %.2f, want high predictability", m)
	}
	tbl := Fig5Table([]MetricCorrelation{bayes})
	if len(tbl.Rows) == 0 {
		t.Fatal("empty Fig5 table")
	}
}

func TestAdvisorPredictsHeldOutWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("advisor skipped in -short")
	}
	adv := TierAdvisor{Ev: NewEvaluator(sharedQuery)}
	if err := adv.Train([]string{"sort", "repartition", "bayes", "lda"}, 1); err != nil {
		t.Fatal(err)
	}
	if adv.R2() < 0.8 {
		t.Errorf("advisor R2 = %.3f, want a strong linear fit (Takeaway 8)", adv.R2())
	}
	mape := must(adv.Evaluate("pagerank", 1))
	t.Logf("held-out pagerank MAPE = %.1f%%", mape*100)
	if mape > 0.6 {
		t.Errorf("held-out MAPE %.1f%% too large for a usable predictor", mape*100)
	}

	// Recommend must pick the fastest tier (Tier 0 given equal capacity).
	profile := sharedEval().Run(hibench.RunSpec{
		Workload: "pagerank", Size: workloads.Large, Tier: memsim.Tier0,
	})[0]
	best, pred := adv.Recommend(profile)
	if best != memsim.Tier0 {
		t.Errorf("recommended %v, want Tier 0 as fastest", best)
	}
	if pred <= 0 {
		t.Errorf("predicted time %v not positive", pred)
	}
}

func TestComparePredictors(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor comparison skipped in -short")
	}
	names := []string{"bayes", "rf", "pagerank"}
	scores := must(sharedEval().ComparePredictors(names, 1))
	if len(scores) != 2 {
		t.Fatalf("scores = %d model families, want 2", len(scores))
	}
	for _, s := range scores {
		if len(s.MAPE) != len(names) {
			t.Errorf("%s evaluated %d workloads, want %d", s.Kind, len(s.MAPE), len(names))
		}
		for w, m := range s.MAPE {
			t.Logf("%s held-out %s: %.1f%% MAPE", s.Kind, w, m*100)
			if m < 0 || m > 1.5 {
				t.Errorf("%s/%s MAPE %.2f out of sane range", s.Kind, w, m)
			}
		}
		if s.Mean <= 0 || s.Mean > 1.0 {
			t.Errorf("%s mean MAPE %.2f unusable", s.Kind, s.Mean)
		}
	}
	tbl := PredictorTable(scores, names)
	if len(tbl.Rows) != len(names)+1 {
		t.Fatalf("table rows = %d, want %d", len(tbl.Rows), len(names)+1)
	}
}

// TestPredictorTable pins the compared families and their column order,
// and checks the OLS row recovers an exactly linear training set.
func TestPredictorTable(t *testing.T) {
	want := []PredictorKind{"ols", "knn"}
	if len(predictors) != len(want) {
		t.Fatalf("%d predictor families, want %d", len(predictors), len(want))
	}
	for i, p := range predictors {
		if p.kind != want[i] {
			t.Fatalf("predictor %d is %q, want %q", i, p.kind, want[i])
		}
	}
	xs := [][]float64{{1, 0}, {2, 1}, {3, 0}, {4, 1}, {5, 0}}
	ys := []float64{2, 5, 6, 9, 10} // y = 2*x0 + x1
	predict := predictors[0].fit(xs, ys)
	for i, x := range xs {
		if got := predict(x); math.Abs(got-ys[i]) > 1e-6 {
			t.Errorf("ols predicts %v at %v, want %v", got, x, ys[i])
		}
	}
}

func TestAdvisorUntrainedPanics(t *testing.T) {
	var adv TierAdvisor
	defer func() {
		if recover() == nil {
			t.Error("untrained advisor did not panic")
		}
	}()
	adv.R2()
}

func TestTableWriteCSV(t *testing.T) {
	tbl := Table{Headers: []string{"a", "b"}}
	tbl.AddRow("x,1", "y") // comma must be quoted
	tbl.AddRow("2", "3")
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "a,b\n\"x,1\",y\n2,3\n"
	if got != want {
		t.Fatalf("csv = %q, want %q", got, want)
	}
}

func TestDeriveGuidelines(t *testing.T) {
	if testing.Short() {
		t.Skip("guidelines need a characterization; skipped in -short")
	}
	c := sharedEval().Characterization([]string{"als", "lda"}, nil, nil, 1)
	gs := DeriveGuidelines(c, 0.15)
	if len(gs) != 2 {
		t.Fatalf("guidelines = %d, want 2", len(gs))
	}
	byName := map[string]Guideline{}
	for _, g := range gs {
		byName[g.Workload] = g
		if g.Rationale == "" {
			t.Errorf("%s has no rationale", g.Workload)
		}
	}
	// als tolerates NVM and gets recommended off local DRAM; lda is the
	// most latency-sensitive workload and must stay on Tier 0.
	if byName["als"].Recommended == memsim.Tier0 {
		t.Errorf("als recommended %v; it tolerates cheap capacity", byName["als"].Recommended)
	}
	if !byName["als"].NVMTolerant {
		t.Error("als should be NVM tolerant")
	}
	if byName["lda"].Recommended != memsim.Tier0 {
		t.Errorf("lda recommended %v; it must stay on local DRAM", byName["lda"].Recommended)
	}
	if byName["lda"].NVMTolerant {
		t.Error("lda flagged NVM tolerant")
	}
	tbl := GuidelinesTable(gs)
	if len(tbl.Rows) != 2 {
		t.Fatalf("table rows = %d", len(tbl.Rows))
	}
}
