// Package core contains the paper's experiment harnesses: the figure
// reproductions (fig2–fig56), the tier advisor and its predictors, the
// placement studies and the wear model.
package core

import (
	"fmt"

	"repro/internal/hibench"
	"repro/internal/memsim"
	"repro/internal/workloads"
)

// membindCell names the plain membind experiment cell (workload, size,
// tier, seed) in query vocabulary.
func membindCell(workload string, size workloads.Size, tier memsim.TierID, seed int64) hibench.Query {
	return hibench.Query{
		Workload: workload, Size: size.String(),
		Placement: fmt.Sprintf("tier:%d", int(tier)), Seed: seed,
	}
}
