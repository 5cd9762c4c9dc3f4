package core

import (
	"fmt"

	"repro/internal/hibench"
	"repro/internal/memsim"
	"repro/internal/workloads"
)

// WearReport projects Optane DCPM endurance consumption for a workload
// run continuously on Tier 2 — the long-term cost behind the paper's
// Takeaway 3 remark that increased writes "reduce the lifetime of
// persistent memory".
type WearReport struct {
	Workload string
	Size     workloads.Size
	// WriteBytesPerSec is the sustained media write rate on the DCPM
	// device group.
	WriteBytesPerSec float64
	// YearsToWearOut is the projected time until the group's endurance
	// budget (capacity x rated cycles) is consumed at that rate.
	YearsToWearOut float64
}

// ratedCycles mirrors the conservative endurance budget used by
// memsim.Tier.WearFraction.
const ratedCycles = 1e5

// wearPlan plans one Tier 2 run per workload and folds each into its DCPM
// write rate and the device lifetime that rate projects under continuous
// operation.
func wearPlan(names []string, size workloads.Size, seed int64) plan[[]WearReport] {
	specs := make([]hibench.RunSpec, len(names))
	for i, w := range names {
		specs[i] = hibench.RunSpec{Workload: w, Size: size, Tier: memsim.Tier2, Seed: seed}
	}
	return plan[[]WearReport]{specs: specs, fold: func(results []hibench.RunResult) []WearReport {
		out := make([]WearReport, len(names))
		for i, res := range results {
			secs := res.Duration.Seconds()
			rate := float64(res.NVMCounters.MediaWriteBytes) / secs
			spec := memsim.DefaultSpecs()[memsim.Tier2]
			budget := float64(spec.CapacityBytes) * ratedCycles
			years := budget / rate / (365.25 * 24 * 3600)
			out[i] = WearReport{
				Workload:         names[i],
				Size:             size,
				WriteBytesPerSec: rate,
				YearsToWearOut:   years,
			}
		}
		return out
	}}
}

// WearTable renders projections, one row per report.
func WearTable(size workloads.Size, reports []WearReport) Table {
	t := Table{
		Title:   fmt.Sprintf("Takeaway 3 extension: projected DCPM endurance under continuous %s runs", size),
		Headers: []string{"workload", "media write rate", "projected lifetime"},
	}
	for _, r := range reports {
		t.AddRow(r.Workload,
			fmt.Sprintf("%.1f MB/s", r.WriteBytesPerSec/1e6),
			fmt.Sprintf("%.0f years", r.YearsToWearOut))
	}
	return t
}
