package core

import (
	"fmt"
	"io"

	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/workloads"
)

// ReproduceOptions configures a full end-to-end reproduction run.
type ReproduceOptions struct {
	// Seed drives every experiment (default 1).
	Seed int64
	// SkipScaling drops the (slow) Figure 4 grids.
	SkipScaling bool
	// Workloads narrows the studied set (nil = the paper's seven); used
	// by tests and quick passes.
	Workloads []string
	// Progress, when non-nil, receives one line per completed artefact.
	Progress func(string)
}

// Reproduce regenerates every table and figure of the paper plus the
// extension studies, rendering them to w in order. This is the one-call
// version of the whole evaluation; cmd/reproduce wraps it. Like the paper,
// it measures each cell of the workload x size x tier matrix once: every
// figure evaluates through one Evaluator, so Figure 6, the predictor and
// the other artefacts that revisit Figure 2's cells read them back.
func Reproduce(w io.Writer, opts ReproduceOptions) {
	NewEvaluator(nil).Reproduce(w, opts)
}

// Reproduce renders the full report through e, reading back whatever
// cells e already holds.
func (e *Evaluator) Reproduce(w io.Writer, opts ReproduceOptions) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	step := func(name string) {
		if opts.Progress != nil {
			opts.Progress(name)
		}
	}
	names := opts.Workloads
	if names == nil {
		names = workloads.Names()
	}
	section := func(title string) {
		fmt.Fprintf(w, "\n================ %s ================\n\n", title)
	}

	// Table I.
	section("Table I — tier latency and bandwidth")
	t1 := Table{
		Headers: []string{"tier", "probed latency [ns]", "probed bandwidth [GB/s]"},
	}
	for _, r := range numa.ProbeAllTiers() {
		t1.AddRow(r.Tier.String(), fmt.Sprintf("%.1f", r.LatencyNS), fmt.Sprintf("%.2f", r.BandwidthGB))
	}
	t1.Render(w)
	step("Table I")

	// Table II.
	section("Table II — workload catalog")
	t2 := Table{Headers: []string{"workload", "category", "tiny", "small", "large"}}
	for _, wl := range workloads.All() {
		t2.AddRow(wl.Name(), string(wl.Category()),
			wl.Describe(workloads.Tiny), wl.Describe(workloads.Small), wl.Describe(workloads.Large))
	}
	t2.Render(w)
	step("Table II")

	// Figure 2 (all three panels) + guidelines.
	section("Figure 2 — characterization matrix")
	c := e.Characterization(names, nil, nil, opts.Seed)
	c.TimeTable().Render(w)
	fmt.Fprintln(w)
	c.AccessTable().Render(w)
	fmt.Fprintln(w)
	c.EnergyTable().Render(w)
	fmt.Fprintf(w, "\ngeomean slowdown vs Tier 0: T1 %.2fx, T2 %.2fx, T3 %.2fx\n",
		c.MeanSlowdown(memsim.Tier1), c.MeanSlowdown(memsim.Tier2), c.MeanSlowdown(memsim.Tier3))
	fmt.Fprintf(w, "geomean DCPM/DRAM execution time: %.2fx; per-DIMM energy: %.2fx\n",
		c.DCPMvsDRAMSlowdown(), c.MeanEnergyRatio())
	step("Figure 2")

	section("Derived deployment guidelines")
	GuidelinesTable(DeriveGuidelines(c, 0.15)).Render(w)
	step("guidelines")

	// Figure 3.
	section("Figure 3 — MBA bandwidth caps")
	sweep := e.MBASweep(names, nil, memsim.Tier2, opts.Seed)
	sweep.Table().Render(w)
	step("Figure 3")

	// Figure 4.
	if !opts.SkipScaling {
		section("Figure 4 — executor/core scaling grids")
		fig4 := Fig4Workloads()
		if opts.Workloads != nil {
			fig4 = intersect(fig4, names)
		}
		for _, wl := range fig4 {
			for _, size := range []workloads.Size{workloads.Small, workloads.Large} {
				grid := e.ScalingGrid(wl, size, memsim.Tier2, nil, nil, opts.Seed)
				grid.Table().Render(w)
				fmt.Fprintln(w)
			}
		}
		step("Figure 4")
	}

	// Figures 5 and 6.
	section("Figure 5 — system metrics vs execution time")
	var cols []MetricCorrelation
	for _, wl := range names {
		cols = append(cols, e.MetricCorrelation(wl, []int64{opts.Seed, opts.Seed + 1, opts.Seed + 2}))
	}
	Fig5Table(cols).Render(w)
	step("Figure 5")

	section("Figure 6 — hardware specs vs execution time")
	var cells []SpecCorrelation
	for _, wl := range names {
		for _, size := range workloads.AllSizes() {
			cells = append(cells, e.SpecCorrelation(wl, size, opts.Seed))
		}
	}
	Fig6Table(cells).Render(w)
	step("Figure 6")

	// §IV-F predictor.
	section("§IV-F — tier performance predictor")
	scores := must(e.ComparePredictors(names, opts.Seed))
	PredictorTable(scores, names).Render(w)
	step("predictor")

	// Extensions.
	section("Extensions — placement, what-if, endurance")
	ext := intersect([]string{"pagerank", "lda"}, names)
	for _, wl := range ext {
		must(e.PlacementStudy(wl, workloads.Large, opts.Seed)).Table().Render(w)
		fmt.Fprintln(w)
	}
	whatIf := intersect([]string{"sort", "lda", "pagerank"}, names)
	if len(whatIf) > 0 {
		WhatIfTable(must(e.WhatIf(whatIf, workloads.Large, opts.Seed))).Render(w)
		fmt.Fprintln(w)
	}
	e.WearTable(workloads.Large, opts.Seed, names).Render(w)
	step("extensions")
}

// intersect keeps the members of a that appear in b, preserving a's order.
func intersect(a, b []string) []string {
	set := map[string]bool{}
	for _, s := range b {
		set[s] = true
	}
	var out []string
	for _, s := range a {
		if set[s] {
			out = append(out, s)
		}
	}
	return out
}
