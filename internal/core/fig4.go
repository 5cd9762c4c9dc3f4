package core

import (
	"fmt"

	"repro/internal/hibench"
	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Figure 4's sweep axes: executors (Y) and total cores per NUMA node (X),
// with the paper's baseline at 1 executor x 40 cores.
var (
	// DefaultExecutorCounts is the Y axis of Figure 4.
	DefaultExecutorCounts = []int{1, 2, 4, 8}
	// DefaultCoreCounts is the X axis of Figure 4 (total cores in use).
	DefaultCoreCounts = []int{5, 10, 20, 40}
)

// Fig4Workloads are the four applications shown in Figure 4.
func Fig4Workloads() []string { return []string{"sort", "rf", "lda", "pagerank"} }

// ScalingCell is one square of a Figure 4 heatmap.
type ScalingCell struct {
	Duration sim.Time
	// Speedup is baseline time / cell time: >1 is faster than the
	// 1x40 baseline, <1 is a slowdown.
	Speedup float64
	// Valid is false for infeasible layouts (executors > cores).
	Valid bool
}

// ScalingGrid is one Figure 4 heatmap: a workload at a size on a tier.
type ScalingGrid struct {
	Workload string
	Size     workloads.Size
	Tier     memsim.TierID
	Baseline sim.Time
	// Executors and Cores are the axes the grid was swept over.
	Executors, Cores []int
	Cells            map[[2]int]ScalingCell // key: [executors, totalCores]
}

// ScalingGrid reproduces one heatmap of Figure 4. Cores are divided
// evenly among executors; layouts with fewer cores than executors are
// marked invalid (they cannot be launched).
func (e *Evaluator) ScalingGrid(workload string, size workloads.Size, tier memsim.TierID,
	executors, cores []int, seed int64) *ScalingGrid {
	return must(scalingPlan(workload, size, tier, executors, cores, seed).run(e))
}

// scalingPlan plans one heatmap: the 1x40 baseline first, then every
// feasible layout in grid order.
func scalingPlan(workload string, size workloads.Size, tier memsim.TierID,
	executors, cores []int, seed int64) plan[*ScalingGrid] {
	if executors == nil {
		executors = DefaultExecutorCounts
	}
	if cores == nil {
		cores = DefaultCoreCounts
	}
	specs := []hibench.RunSpec{{
		Workload: workload, Size: size, Tier: tier,
		Executors: 1, CoresPerExecutor: 40, Seed: seed,
	}}
	for _, n := range executors {
		for _, c := range cores {
			if c >= n {
				specs = append(specs, hibench.RunSpec{
					Workload: workload, Size: size, Tier: tier,
					Executors: n, CoresPerExecutor: c / n, Seed: seed,
				})
			}
		}
	}
	return plan[*ScalingGrid]{specs: specs, fold: func(results []hibench.RunResult) *ScalingGrid {
		grid := &ScalingGrid{
			Workload:  workload,
			Size:      size,
			Tier:      tier,
			Executors: executors,
			Cores:     cores,
			Cells:     make(map[[2]int]ScalingCell),
		}
		base, results := results[0], results[1:]
		grid.Baseline = base.Duration
		for _, n := range executors {
			for _, c := range cores {
				var cell ScalingCell
				if c >= n {
					cell.Duration = results[0].Duration
					cell.Speedup = float64(base.Duration) / float64(cell.Duration)
					cell.Valid = true
					results = results[1:]
				}
				grid.Cells[[2]int{n, c}] = cell
			}
		}
		return grid
	}}
}

// Cell returns one square.
func (g *ScalingGrid) Cell(executors, cores int) ScalingCell {
	cell, ok := g.Cells[[2]int{executors, cores}]
	if !ok {
		panic(fmt.Sprintf("core: missing scaling cell %dx%d", executors, cores))
	}
	return cell
}

// WorstSlowdown returns the largest slowdown factor (1/speedup) over valid
// cells — the paper reports up to 3.11x on the NVM tier.
func (g *ScalingGrid) WorstSlowdown() float64 {
	worst := 1.0
	for _, c := range g.Cells {
		if c.Valid && c.Speedup > 0 {
			worst = max(worst, 1/c.Speedup)
		}
	}
	return worst
}

// BestSpeedup returns the largest speedup over valid cells.
func (g *ScalingGrid) BestSpeedup() float64 {
	best := 0.0
	for _, c := range g.Cells {
		if c.Valid {
			best = max(best, c.Speedup)
		}
	}
	return best
}

// Table renders the heatmap with executors as rows and cores as columns.
func (g *ScalingGrid) Table() Table {
	t := Table{
		Title:   fmt.Sprintf("Figure 4: %s/%s on %s — speedup vs 1x40 baseline (%.4fs)", g.Workload, g.Size, g.Tier, g.Baseline.Seconds()),
		Headers: []string{"executors \\ cores"},
	}
	for _, c := range g.Cores {
		t.Headers = append(t.Headers, fmt.Sprintf("%d", c))
	}
	for _, e := range g.Executors {
		row := []string{fmt.Sprintf("%d", e)}
		for _, c := range g.Cores {
			cell := g.Cell(e, c)
			if !cell.Valid {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.2fx", cell.Speedup))
			}
		}
		t.AddRow(row...)
	}
	return t
}
