package core

import (
	"fmt"

	"repro/internal/executor"
	"repro/internal/hibench"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// PlacementPoint is one deployment of the placement study: a named
// per-category tier assignment and its measured execution time.
type PlacementPoint struct {
	Name      string
	Placement executor.Placement
	Duration  sim.Time
	// NVMShare is the fraction of media accesses that landed on DCPM
	// tiers — the "how much cheap capacity did we actually use" axis.
	NVMShare float64
}

// PlacementStudy explores the paper's §IV-G direction — "determining the
// optimal memory tier per access type" — for one workload: it compares
// all-DRAM and all-NVM membind against mixed placements that split heap,
// shuffle and cache traffic between Tier 0 (scarce, fast DRAM) and Tier 2
// (abundant, slow DCPM).
type PlacementStudy struct {
	Workload string
	Size     workloads.Size
	Points   []PlacementPoint
}

// PlacementStudy measures every standard placement for one workload. The
// table of deployments lives in executor, next to the Placement type, so
// the advisor service resolves the same names.
func (e *Evaluator) PlacementStudy(workload string, size workloads.Size, seed int64) (*PlacementStudy, error) {
	return placementPlan(workload, size, seed).run(e)
}

// placementPlan plans one query per standard placement.
func placementPlan(workload string, size workloads.Size, seed int64) plan[*PlacementStudy] {
	placements := executor.StandardPlacements()
	qs := make([]hibench.Query, len(placements))
	for i, sp := range placements {
		qs[i] = hibench.Query{
			Workload: workload, Size: size.String(), Placement: sp.Name, Seed: seed,
		}
	}
	return plan[*PlacementStudy]{qs: qs, fold: func(results []hibench.RunResult) *PlacementStudy {
		study := &PlacementStudy{Workload: workload, Size: size}
		for i, sp := range placements {
			res := results[i]
			study.Points = append(study.Points, PlacementPoint{
				Name:      sp.Name,
				Placement: sp.P,
				Duration:  res.Duration,
				NVMShare:  hibench.NVMShare(res),
			})
		}
		return study
	}}
}

// Table renders the study.
func (s *PlacementStudy) Table() Table {
	t := Table{
		Title:   fmt.Sprintf("Placement study: %s/%s — tier per traffic category", s.Workload, s.Size),
		Headers: []string{"placement", "heap", "shuffle", "cache", "time [s]", "vs all-DRAM", "NVM access share"},
	}
	for _, p := range s.Points {
		t.AddRow(p.Name,
			p.Placement.Heap.String(), p.Placement.Shuffle.String(), p.Placement.Cache.String(),
			fmt.Sprintf("%.4f", p.Duration.Seconds()),
			fmt.Sprintf("%.2fx", float64(p.Duration)/float64(s.Points[0].Duration)),
			fmt.Sprintf("%.0f%%", p.NVMShare*100))
	}
	return t
}

// InterleavePoint is one step of the DRAM:NVM ratio sweep.
type InterleavePoint struct {
	// NVMFraction of heap traffic served by Tier 2.
	NVMFraction float64
	Duration    sim.Time
	// Slowdown vs the all-DRAM endpoint.
	Slowdown float64
}

// InterleaveSweep traces the classic tiering trade-off curve: heap
// traffic split between local DRAM and local DCPM at increasing NVM
// fractions (numactl --interleave / Memory-Mode-style weighted placement),
// from the all-DRAM to the all-NVM endpoint.
func (e *Evaluator) InterleaveSweep(workload string, size workloads.Size, fractions []float64, seed int64) ([]InterleavePoint, error) {
	if fractions == nil {
		fractions = []float64{0, 0.25, 0.5, 0.75, 1.0}
	}
	qs := make([]hibench.Query, len(fractions))
	for i, f := range fractions {
		qs[i] = hibench.Query{
			Workload: workload, Size: size.String(),
			Placement: fmt.Sprintf("interleave:%g", f), Seed: seed,
		}
	}
	results, err := e.Queries(qs)
	if err != nil {
		return nil, err
	}
	out := make([]InterleavePoint, len(fractions))
	for i, res := range results {
		out[i] = InterleavePoint{
			NVMFraction: fractions[i],
			Duration:    res.Duration,
			Slowdown:    float64(res.Duration) / float64(results[0].Duration),
		}
	}
	return out, nil
}

// InterleaveTable renders the ratio sweep.
func InterleaveTable(workload string, size workloads.Size, points []InterleavePoint) Table {
	t := Table{
		Title:   fmt.Sprintf("Heap interleave sweep: %s/%s — DRAM:NVM ratio vs execution time", workload, size),
		Headers: []string{"NVM fraction", "time [s]", "vs all-DRAM"},
	}
	for _, p := range points {
		t.AddRow(
			fmt.Sprintf("%.0f%%", p.NVMFraction*100),
			fmt.Sprintf("%.4f", p.Duration.Seconds()),
			fmt.Sprintf("%.2fx", p.Slowdown))
	}
	return t
}
