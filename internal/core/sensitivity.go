package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// SensitivityResult reports how one calibration knob moves the headline
// metric (the geomean Tier 2 slowdown) when perturbed. Small movements and
// preserved orderings mean the reproduction's conclusions do not hinge on
// the exact calibration constants.
type SensitivityResult struct {
	// Knob names the perturbed parameter.
	Knob string
	// Scale is the multiplicative perturbation applied.
	Scale float64
	// T2Geomean is the geomean Tier 2 slowdown under the perturbation.
	T2Geomean float64
	// OrderingHolds reports whether T0 < T1 < T2 < T3 survived for every
	// measured cell.
	OrderingHolds bool
}

// sensitivityKnobs enumerates the perturbable parameters.
func sensitivityKnobs() []string {
	return []string{
		"baseline",
		"cpu-per-record",
		"engine-overheads",
		"flops",
		"object-churn",
		"dcpm-write-latency",
		"contention-slope",
		"alloc-contention",
	}
}

// RunSensitivity perturbs each knob by ±20% (object churn by ±1 step) and
// re-measures the tier gaps for the given workloads at the given size. An
// unknown workload name is an error.
func RunSensitivity(names []string, size workloads.Size, seed int64) ([]SensitivityResult, error) {
	if names == nil {
		names = []string{"repartition", "bayes", "lda"}
	}
	ws := make([]workloads.Workload, len(names))
	for i, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	var out []SensitivityResult
	for _, knob := range sensitivityKnobs() {
		scales := []float64{0.8, 1.2}
		if knob == "baseline" {
			scales = []float64{1.0}
		}
		for _, scale := range scales {
			cost := executor.DefaultCostModel()
			specs := memsim.DefaultSpecs()
			applyKnob(&cost, &specs, knob, scale)

			geo, ordering := measureGaps(ws, size, seed, &cost, &specs)
			out = append(out, SensitivityResult{
				Knob:          knob,
				Scale:         scale,
				T2Geomean:     geo,
				OrderingHolds: ordering,
			})
		}
	}
	return out, nil
}

// applyKnob perturbs one parameter group in place.
func applyKnob(cost *executor.CostModel, specs *[memsim.NumTiers]memsim.TierSpec, knob string, scale float64) {
	switch knob {
	case "baseline":
	case "cpu-per-record":
		cost.MapNS *= scale
		cost.FilterNS *= scale
		cost.HashNS *= scale
		cost.CompareNS *= scale
		cost.ReduceNS *= scale
		cost.SerDePerB *= scale
		cost.GeneratePNS *= scale
	case "engine-overheads":
		cost.TaskDispatchNS *= scale
		cost.StageOverheadNS *= scale
		cost.JobOverheadNS *= scale
		cost.ExecStartupNS *= scale
	case "flops":
		cost.FlopNS *= scale
	case "object-churn":
		if scale < 1 {
			cost.ObjectChurn--
		} else {
			cost.ObjectChurn++
		}
	case "dcpm-write-latency":
		for _, id := range []memsim.TierID{memsim.Tier2, memsim.Tier3} {
			f := (specs[id].WriteLatencyFactor-1)*scale + 1
			specs[id].WriteLatencyFactor = f
		}
	case "contention-slope":
		for i := range specs {
			specs[i].ContentionFactor *= scale
		}
	case "alloc-contention":
		cost.AllocContentionFactor *= scale
	default:
		panic(fmt.Sprintf("core: unknown sensitivity knob %q", knob))
	}
}

// measureGaps runs the workloads across all tiers under the perturbed
// model and returns (geomean T2 slowdown, ordering-held).
func measureGaps(ws []workloads.Workload, size workloads.Size, seed int64,
	cost *executor.CostModel, specs *[memsim.NumTiers]memsim.TierSpec) (float64, bool) {
	ordering := true
	var t2ratios []float64
	for _, w := range ws {
		var times [memsim.NumTiers]float64
		for _, tier := range memsim.AllTiers() {
			conf := cluster.DefaultConf()
			conf.Binding = numa.BindingForTier(tier)
			conf.Cost = cost
			conf.TierSpecs = specs
			conf.Seed = seed
			app := cluster.New(conf)
			w.Run(app, size)
			times[tier] = app.Elapsed().Seconds()
		}
		for i := 1; i < int(memsim.NumTiers); i++ {
			if times[i] <= times[i-1] {
				ordering = false
			}
		}
		t2ratios = append(t2ratios, times[memsim.Tier2]/times[memsim.Tier0])
	}
	return stats.GeoMean(t2ratios), ordering
}

// SensitivityTable renders the analysis.
func SensitivityTable(results []SensitivityResult) Table {
	t := Table{
		Title:   "Cost-model sensitivity: geomean Tier 2 slowdown under ±20% knob perturbations",
		Headers: []string{"knob", "scale", "T2 geomean", "tier ordering"},
	}
	for _, r := range results {
		ok := "holds"
		if !r.OrderingHolds {
			ok = "BROKEN"
		}
		t.AddRow(r.Knob, fmt.Sprintf("%.1fx", r.Scale), fmt.Sprintf("%.2fx", r.T2Geomean), ok)
	}
	return t
}
