package core

import (
	"fmt"
	"io"

	"repro/internal/hibench"
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
// cells e already holds. It renders Tables I and II, plans every later
// section, answers all the plans in one batch, then folds and renders the
// sections in report order, so each input is generated, and each of lda's
// sweeps sampled, once per report.
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

	// Every later section's plan, in report order, answered in one batch.
	r := &report{e: e}
	fig2 := add(r, characterizationPlan(names, nil, nil, opts.Seed))
	fig3 := add(r, mbaPlan(names, nil, memsim.Tier2, opts.Seed))
	var fig4 []func() *ScalingGrid
	if !opts.SkipScaling {
		wls := Fig4Workloads()
		if opts.Workloads != nil {
			wls = intersect(wls, names)
		}
		for _, wl := range wls {
			for _, size := range []workloads.Size{workloads.Small, workloads.Large} {
				fig4 = append(fig4, add(r, scalingPlan(wl, size, memsim.Tier2, nil, nil, opts.Seed)))
			}
		}
	}
	var fig5 []func() MetricCorrelation
	var fig6 []func() SpecCorrelation
	for _, wl := range names {
		fig5 = append(fig5, add(r, metricPlan(wl, []int64{opts.Seed, opts.Seed + 1, opts.Seed + 2})))
	}
	for _, wl := range names {
		for _, size := range workloads.AllSizes() {
			fig6 = append(fig6, add(r, specPlan(wl, size, opts.Seed)))
		}
	}
	predictor := add(r, predictorPlan(names, opts.Seed))
	var placements []func() *PlacementStudy
	for _, wl := range intersect([]string{"pagerank", "lda"}, names) {
		placements = append(placements, add(r, placementPlan(wl, workloads.Large, opts.Seed)))
	}
	var whatIf func() []WhatIfResult
	if wls := intersect([]string{"sort", "lda", "pagerank"}, names); len(wls) > 0 {
		whatIf = add(r, whatIfPlan(wls, workloads.Large, opts.Seed))
	}
	wear := add(r, wearPlan(names, workloads.Large, opts.Seed))
	r.eval()

	// Figure 2 (all three panels) + guidelines.
	section("Figure 2 — characterization matrix")
	c := fig2()
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
	fig3().Table().Render(w)
	step("Figure 3")

	// Figure 4.
	if !opts.SkipScaling {
		section("Figure 4 — executor/core scaling grids")
		for _, grid := range fig4 {
			grid().Table().Render(w)
			fmt.Fprintln(w)
		}
		step("Figure 4")
	}

	// Figures 5 and 6.
	section("Figure 5 — system metrics vs execution time")
	Fig5Table(folded(fig5)).Render(w)
	step("Figure 5")

	section("Figure 6 — hardware specs vs execution time")
	Fig6Table(folded(fig6)).Render(w)
	step("Figure 6")

	// §IV-F predictor.
	section("§IV-F — tier performance predictor")
	PredictorTable(predictor(), names).Render(w)
	step("predictor")

	// Extensions.
	section("Extensions — placement, what-if, endurance")
	for _, study := range placements {
		study().Table().Render(w)
		fmt.Fprintln(w)
	}
	if whatIf != nil {
		WhatIfTable(whatIf()).Render(w)
		fmt.Fprintln(w)
	}
	WearTable(workloads.Large, wear()).Render(w)
	step("extensions")
}

// report gathers the plans of one report so that one eval call answers
// them all.
type report struct {
	e     *Evaluator
	specs []hibench.RunSpec
	res   []hibench.RunResult
}

// add puts p's cells on r and returns p's fold over its slice of r's
// answers, to call after r.eval. Cells come from validated tables, so a
// query that does not resolve panics. A query plan an injected runner
// answers joins no batch: its fold asks the runner.
func add[T any](r *report, p plan[T]) func() T {
	specs := p.specs
	if p.qs != nil {
		if r.e.runner != nil {
			return func() T { return must(p.run(r.e)) }
		}
		specs = must(resolve(p.qs))
	}
	lo := len(r.specs)
	r.specs = append(r.specs, specs...)
	hi := len(r.specs)
	return func() T { return p.fold(r.res[lo:hi:hi]) }
}

// eval answers every cell added to r in one batch.
func (r *report) eval() { r.res = r.e.Run(r.specs...) }

// folded calls each fold in order and returns their results.
func folded[T any](folds []func() T) []T {
	out := make([]T, len(folds))
	for i, fold := range folds {
		out[i] = fold()
	}
	return out
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
