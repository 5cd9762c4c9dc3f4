package core

import (
	"fmt"

	"repro/internal/hibench"
	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// CellKey identifies one cell of the Figure 2 characterization matrix.
type CellKey struct {
	Workload string
	Size     workloads.Size
	Tier     memsim.TierID
}

// Characterization holds the full workload x size x tier matrix of
// Figure 2: execution times (top), NVM media accesses (middle) and DIMM
// energy (bottom).
type Characterization struct {
	Workloads []string
	Sizes     []workloads.Size
	Tiers     []memsim.TierID
	Results   map[CellKey]hibench.RunResult
}

// Characterization executes the matrix with the paper's default Spark
// configuration (1 executor x 40 cores). Nil slices select the full sets.
func (e *Evaluator) Characterization(names []string, sizes []workloads.Size, tiers []memsim.TierID, seed int64) *Characterization {
	return must(characterizationPlan(names, sizes, tiers, seed).run(e))
}

// characterizationPlan plans the matrix, workload by size by tier.
func characterizationPlan(names []string, sizes []workloads.Size, tiers []memsim.TierID, seed int64) plan[*Characterization] {
	if names == nil {
		names = workloads.Names()
	}
	if sizes == nil {
		sizes = workloads.AllSizes()
	}
	if tiers == nil {
		tiers = memsim.AllTiers()
	}
	var specs []hibench.RunSpec
	for _, w := range names {
		for _, size := range sizes {
			for _, tier := range tiers {
				specs = append(specs, hibench.RunSpec{
					Workload: w, Size: size, Tier: tier, Seed: seed,
				})
			}
		}
	}
	return plan[*Characterization]{specs: specs, fold: func(results []hibench.RunResult) *Characterization {
		c := &Characterization{
			Workloads: names,
			Sizes:     sizes,
			Tiers:     tiers,
			Results:   make(map[CellKey]hibench.RunResult),
		}
		for _, res := range results {
			c.Results[CellKey{res.Spec.Workload, res.Spec.Size, res.Spec.Tier}] = res
		}
		return c
	}}
}

// Duration returns a cell's execution time.
func (c *Characterization) Duration(w string, size workloads.Size, tier memsim.TierID) sim.Time {
	res, ok := c.Results[CellKey{w, size, tier}]
	if !ok {
		panic(fmt.Sprintf("core: missing cell %s/%s/%s", w, size, tier))
	}
	return res.Duration
}

// Slowdown returns T(tier)/T(Tier0) for a cell.
func (c *Characterization) Slowdown(w string, size workloads.Size, tier memsim.TierID) float64 {
	return float64(c.Duration(w, size, tier)) / float64(c.Duration(w, size, memsim.Tier0))
}

// MeanSlowdown returns the geometric-mean slowdown of a tier vs Tier 0
// across every (workload, size) cell — the paper's headline per-tier gap.
func (c *Characterization) MeanSlowdown(tier memsim.TierID) float64 {
	var ratios []float64
	for _, w := range c.Workloads {
		for _, s := range c.Sizes {
			ratios = append(ratios, c.Slowdown(w, s, tier))
		}
	}
	return stats.GeoMean(ratios)
}

// DCPMvsDRAMSlowdown returns the geomean of DCPM-bound over DRAM-bound
// execution time across cells (Tiers 2,3 vs Tiers 0,1) — the paper's
// "76.7% more execution time" comparison.
func (c *Characterization) DCPMvsDRAMSlowdown() float64 {
	var ratios []float64
	for _, w := range c.Workloads {
		for _, s := range c.Sizes {
			dram := float64(c.Duration(w, s, memsim.Tier0) + c.Duration(w, s, memsim.Tier1))
			dcpm := float64(c.Duration(w, s, memsim.Tier2) + c.Duration(w, s, memsim.Tier3))
			ratios = append(ratios, dcpm/dram)
		}
	}
	return stats.GeoMean(ratios)
}

// TimeTable renders Figure 2 (top): execution time per cell.
func (c *Characterization) TimeTable() Table {
	t := Table{
		Title:   "Figure 2 (top): execution time [s] per workload, size and memory tier",
		Headers: []string{"workload", "size"},
	}
	for _, tier := range c.Tiers {
		t.Headers = append(t.Headers, tier.String(), "x vs T0")
	}
	for _, w := range c.Workloads {
		for _, s := range c.Sizes {
			row := []string{w, s.String()}
			for _, tier := range c.Tiers {
				row = append(row,
					fmt.Sprintf("%.4f", c.Duration(w, s, tier).Seconds()),
					fmt.Sprintf("%.2f", c.Slowdown(w, s, tier)))
			}
			t.AddRow(row...)
		}
	}
	return t
}

// AccessTable renders Figure 2 (middle): NVM media reads/writes measured
// (ipmctl-style) on the Tier 2 runs.
func (c *Characterization) AccessTable() Table {
	t := Table{
		Title:   "Figure 2 (middle): Optane DCPM media accesses (Tier 2 runs)",
		Headers: []string{"workload", "size", "media reads", "media writes", "write ratio"},
	}
	for _, w := range c.Workloads {
		for _, s := range c.Sizes {
			res := c.Results[CellKey{w, s, memsim.Tier2}]
			m := res.Metrics
			t.AddRow(w, s.String(),
				fmt.Sprintf("%d", m.MediaReads),
				fmt.Sprintf("%d", m.MediaWrites),
				fmt.Sprintf("%.2f", m.WriteRatio()))
		}
	}
	return t
}

// EnergyTable renders Figure 2 (bottom): per-DIMM energy of the DRAM
// device group during the Tier 0 run vs the DCPM device group during the
// Tier 2 run.
func (c *Characterization) EnergyTable() Table {
	t := Table{
		Title:   "Figure 2 (bottom): DIMM energy [J/DIMM], DRAM (Tier 0 run) vs DCPM (Tier 2 run)",
		Headers: []string{"workload", "size", "DRAM J/DIMM", "DCPM J/DIMM", "DCPM/DRAM"},
	}
	for _, w := range c.Workloads {
		for _, s := range c.Sizes {
			dram := c.Results[CellKey{w, s, memsim.Tier0}].DRAMEnergy
			dcpm := c.Results[CellKey{w, s, memsim.Tier2}].DCPMEnergy
			t.AddRow(w, s.String(), F(dram.PerDIMMJ), F(dcpm.PerDIMMJ),
				fmt.Sprintf("%.2f", dcpm.PerDIMMJ/dram.PerDIMMJ))
		}
	}
	return t
}

// MeanEnergyRatio returns the geomean per-DIMM DCPM/DRAM energy ratio —
// the paper reports DRAM consuming ~63.9% less (ratio ~2.8).
func (c *Characterization) MeanEnergyRatio() float64 {
	var ratios []float64
	for _, w := range c.Workloads {
		for _, s := range c.Sizes {
			dram := c.Results[CellKey{w, s, memsim.Tier0}].DRAMEnergy
			dcpm := c.Results[CellKey{w, s, memsim.Tier2}].DCPMEnergy
			ratios = append(ratios, dcpm.PerDIMMJ/dram.PerDIMMJ)
		}
	}
	return stats.GeoMean(ratios)
}
