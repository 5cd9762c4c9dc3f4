package core

import (
	"fmt"

	"repro/internal/hibench"
	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// WhatIfResult is one workload's capacity-tier slowdown under a scenario:
// a hypothetical memory technology swapped into the Tier 2 slot, the
// question the paper's introduction motivates for upcoming CXL memory
// expanders and next-generation NVM. The scenario table lives in memsim
// (CapacityScenarios), next to the tier specifications it perturbs, so the
// advisor service resolves the same names.
type WhatIfResult struct {
	Scenario string
	Workload string
	// Local is the Tier 0 (DRAM) time, identical across scenarios.
	Local sim.Time
	// Capacity is the time bound to the scenario's Tier 2 device.
	Capacity sim.Time
	// Slowdown is Capacity/Local.
	Slowdown float64
}

// WhatIf measures every scenario x workload at the given size. The Tier 0
// anchor is scenario-independent (a Tier 0 run never touches the capacity
// device), so it is evaluated once per workload rather than once per
// scenario x workload.
func (e *Evaluator) WhatIf(names []string, size workloads.Size, seed int64) ([]WhatIfResult, error) {
	return whatIfPlan(names, size, seed).run(e)
}

// whatIfPlan plans the Tier 0 anchors first, then every scenario x
// workload.
func whatIfPlan(names []string, size workloads.Size, seed int64) plan[[]WhatIfResult] {
	if names == nil {
		names = workloads.Names()
	}
	var qs []hibench.Query
	for _, w := range names {
		qs = append(qs, hibench.Query{Workload: w, Size: size.String(), Placement: "tier:0", Seed: seed})
	}
	for _, sc := range memsim.CapacityScenarios() {
		for _, w := range names {
			qs = append(qs, hibench.Query{
				Workload: w, Size: size.String(), Placement: "tier:2", Policy: sc.Name, Seed: seed,
			})
		}
	}
	return plan[[]WhatIfResult]{qs: qs, fold: func(results []hibench.RunResult) []WhatIfResult {
		locals, results := results[:len(names)], results[len(names):]
		var out []WhatIfResult
		for _, sc := range memsim.CapacityScenarios() {
			for i, w := range names {
				out = append(out, WhatIfResult{
					Scenario: sc.Name,
					Workload: w,
					Local:    locals[i].Duration,
					Capacity: results[i].Duration,
					Slowdown: float64(results[i].Duration) / float64(locals[i].Duration),
				})
			}
			results = results[len(names):]
		}
		return out
	}}
}

// WhatIfTable renders the scenario comparison.
func WhatIfTable(results []WhatIfResult) Table {
	t := Table{
		Title:   "What-if: capacity-tier technologies in the Tier 2 slot (slowdown vs local DRAM)",
		Headers: []string{"workload"},
	}
	order := []string{}
	cols := map[string]map[string]WhatIfResult{}
	for _, r := range results {
		if _, ok := cols[r.Scenario]; !ok {
			cols[r.Scenario] = map[string]WhatIfResult{}
			order = append(order, r.Scenario)
			t.Headers = append(t.Headers, r.Scenario)
		}
		cols[r.Scenario][r.Workload] = r
	}
	seen := map[string]bool{}
	for _, r := range results {
		if seen[r.Workload] {
			continue
		}
		seen[r.Workload] = true
		row := []string{r.Workload}
		for _, sc := range order {
			row = append(row, fmt.Sprintf("%.2fx", cols[sc][r.Workload].Slowdown))
		}
		t.AddRow(row...)
	}
	return t
}
