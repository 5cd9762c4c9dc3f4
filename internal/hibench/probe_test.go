package hibench

import (
	"fmt"
	"testing"

	"repro/internal/memsim"
	"repro/internal/workloads"
)

// TestProbeFig2Matrix prints the full characterization matrix. It is a
// diagnostic aid (run with -v); assertions live in takeaways_test.go.
func TestProbeFig2Matrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix probe skipped in -short")
	}
	for _, w := range workloads.Names() {
		for _, size := range workloads.AllSizes() {
			var line string
			var t0 float64
			for _, tier := range memsim.AllTiers() {
				res := runValid(t, RunSpec{Workload: w, Size: size, Tier: tier})
				d := res.Duration.Seconds()
				if tier == memsim.Tier0 {
					t0 = d
				}
				line += fmt.Sprintf(" T%d=%.4fs(x%.2f)", int(tier), d, d/t0)
			}
			res2 := runValid(t, RunSpec{Workload: w, Size: size, Tier: memsim.Tier2})
			c := res2.Metrics
			t.Logf("%-12s %-5s%s | nvmR=%d nvmW=%d wr=%.2f stall%%=%.0f",
				w, size, line, c.MediaReads, c.MediaWrites, c.WriteRatio(),
				100*c.StallNS/float64(res2.Duration))
		}
	}
}
