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

// calibration is the model state a sensitivity knob perturbs.
type calibration struct {
	cost  executor.CostModel
	specs [memsim.NumTiers]memsim.TierSpec
}

// sensitivityKnobs are the perturbable parameter groups in report order:
// each is re-measured at every one of its scales, with apply perturbing a
// fresh default calibration in place.
var sensitivityKnobs = []struct {
	name   string
	scales []float64
	apply  func(c *calibration, scale float64)
}{
	{"baseline", []float64{1.0}, func(*calibration, float64) {}},
	{"cpu-per-record", []float64{0.8, 1.2}, func(c *calibration, scale float64) {
		c.cost.MapNS *= scale
		c.cost.FilterNS *= scale
		c.cost.HashNS *= scale
		c.cost.CompareNS *= scale
		c.cost.ReduceNS *= scale
		c.cost.SerDePerB *= scale
		c.cost.GeneratePNS *= scale
	}},
	{"engine-overheads", []float64{0.8, 1.2}, func(c *calibration, scale float64) {
		c.cost.TaskDispatchNS *= scale
		c.cost.StageOverheadNS *= scale
		c.cost.JobOverheadNS *= scale
		c.cost.ExecStartupNS *= scale
	}},
	{"flops", []float64{0.8, 1.2}, func(c *calibration, scale float64) { c.cost.FlopNS *= scale }},
	{"object-churn", []float64{0.8, 1.2}, func(c *calibration, scale float64) {
		if scale < 1 {
			c.cost.ObjectChurn--
		} else {
			c.cost.ObjectChurn++
		}
	}},
	{"dcpm-write-latency", []float64{0.8, 1.2}, func(c *calibration, scale float64) {
		for _, id := range []memsim.TierID{memsim.Tier2, memsim.Tier3} {
			c.specs[id].WriteLatencyFactor = (c.specs[id].WriteLatencyFactor-1)*scale + 1
		}
	}},
	{"contention-slope", []float64{0.8, 1.2}, func(c *calibration, scale float64) {
		for i := range c.specs {
			c.specs[i].ContentionFactor *= scale
		}
	}},
	{"alloc-contention", []float64{0.8, 1.2}, func(c *calibration, scale float64) {
		c.cost.AllocContentionFactor *= scale
	}},
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
	for _, knob := range sensitivityKnobs {
		for _, scale := range knob.scales {
			c := calibration{cost: executor.DefaultCostModel(), specs: memsim.DefaultSpecs()}
			knob.apply(&c, scale)

			geo, ordering := measureGaps(ws, size, seed, &c.cost, &c.specs)
			out = append(out, SensitivityResult{
				Knob:          knob.name,
				Scale:         scale,
				T2Geomean:     geo,
				OrderingHolds: ordering,
			})
		}
	}
	return out, nil
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
