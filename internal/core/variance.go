package core

import (
	"fmt"

	"repro/internal/hibench"
	"repro/internal/memsim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// CellStats summarizes one experiment cell over repeated runs with
// different seeds — the simulation analog of the paper's repeated
// measurements and error bars.
type CellStats struct {
	Workload string
	Size     workloads.Size
	Tier     memsim.TierID
	// MeanSec / StdSec summarize execution time across seeds.
	MeanSec, StdSec float64
	// CV is the coefficient of variation (std/mean).
	CV float64
	// N is the number of seeds measured.
	N int
}

// VarianceStudy measures every (workload, tier) cell at the given size
// across the seeds and returns per-cell statistics.
func (e *Evaluator) VarianceStudy(names []string, size workloads.Size, seeds []int64) []CellStats {
	if names == nil {
		names = workloads.Names()
	}
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3, 4, 5}
	}
	var specs []hibench.RunSpec
	for _, w := range names {
		for _, tier := range memsim.AllTiers() {
			for _, seed := range seeds {
				specs = append(specs, hibench.RunSpec{
					Workload: w, Size: size, Tier: tier, Seed: seed,
				})
			}
		}
	}
	results := e.Run(specs...)
	var out []CellStats
	for _, w := range names {
		for _, tier := range memsim.AllTiers() {
			times := make([]float64, len(seeds))
			for i := range seeds {
				times[i] = results[i].Duration.Seconds()
			}
			results = results[len(seeds):]
			mean := stats.Mean(times)
			std := stats.StdDev(times)
			out = append(out, CellStats{
				Workload: w,
				Size:     size,
				Tier:     tier,
				MeanSec:  mean,
				StdSec:   std,
				CV:       std / mean,
				N:        len(times),
			})
		}
	}
	return out
}

// MaxCV returns the worst coefficient of variation across cells — the
// "are the conclusions dataset-luck" check.
func MaxCV(cells []CellStats) float64 {
	worst := 0.0
	for _, c := range cells {
		worst = max(worst, c.CV)
	}
	return worst
}

// VarianceTable renders the study.
func VarianceTable(cells []CellStats) Table {
	t := Table{
		Title:   "Seed-variance study: execution time mean ± std across input seeds",
		Headers: []string{"workload", "size", "tier", "mean [s]", "std [s]", "CV"},
	}
	for _, c := range cells {
		t.AddRow(c.Workload, c.Size.String(), c.Tier.String(),
			fmt.Sprintf("%.4f", c.MeanSec),
			fmt.Sprintf("%.5f", c.StdSec),
			fmt.Sprintf("%.1f%%", c.CV*100))
	}
	return t
}
