package hibench

import (
	"math"
	"sync"
	"testing"

	"repro/internal/memsim"
	"repro/internal/workloads"
)

// The takeaway tests assert the paper's qualitative results (§IV,
// Takeaways 1-8) over the full characterization matrix. Bands are
// deliberately loose: the substrate is a simulator, so shapes — orderings,
// groupings, growth directions — are the contract, not absolute numbers.

var (
	matrixOnce sync.Once
	matrix     map[CellKeyT]RunResult
)

// CellKeyT keys the lazily-built matrix shared by the takeaway tests.
type CellKeyT struct {
	W    string
	Size workloads.Size
	Tier memsim.TierID
}

func fullMatrix(t *testing.T) map[CellKeyT]RunResult {
	t.Helper()
	if testing.Short() {
		t.Skip("characterization matrix skipped in -short")
	}
	matrixOnce.Do(func() {
		matrix = make(map[CellKeyT]RunResult)
		for _, w := range workloads.Names() {
			for _, size := range workloads.AllSizes() {
				for _, tier := range memsim.AllTiers() {
					matrix[CellKeyT{w, size, tier}] = runValid(t, RunSpec{
						Workload: w, Size: size, Tier: tier,
					})
				}
			}
		}
	})
	return matrix
}

func slowdown(m map[CellKeyT]RunResult, w string, s workloads.Size, tier memsim.TierID) float64 {
	return float64(m[CellKeyT{w, s, tier}].Duration) / float64(m[CellKeyT{w, s, memsim.Tier0}].Duration)
}

func geomeanSlowdown(m map[CellKeyT]RunResult, tier memsim.TierID) float64 {
	logSum, n := 0.0, 0
	for _, w := range workloads.Names() {
		for _, s := range workloads.AllSizes() {
			r := slowdown(m, w, s, tier)
			logSum += ln(r)
			n++
		}
	}
	return exp(logSum / float64(n))
}

func TestTierOrderingStrict(t *testing.T) {
	m := fullMatrix(t)
	for _, w := range workloads.Names() {
		for _, s := range workloads.AllSizes() {
			var prev float64 = -1
			for _, tier := range memsim.AllTiers() {
				d := m[CellKeyT{w, s, tier}].Duration.Seconds()
				if d <= prev {
					t.Errorf("%s/%s: %v (%.4fs) not slower than previous tier (%.4fs)",
						w, s, tier, d, prev)
				}
				prev = d
			}
		}
	}
}

func TestHeadlineTierGaps(t *testing.T) {
	m := fullMatrix(t)
	t1 := geomeanSlowdown(m, memsim.Tier1)
	t2 := geomeanSlowdown(m, memsim.Tier2)
	t3 := geomeanSlowdown(m, memsim.Tier3)
	t.Logf("geomean slowdowns vs Tier 0: T1 %.2fx, T2 %.2fx, T3 %.2fx", t1, t2, t3)
	if t1 < 1.01 || t1 > 1.5 {
		t.Errorf("T1 geomean slowdown %.2fx outside (1.01, 1.5): remote DRAM penalty off", t1)
	}
	if t2 < 1.15 || t2 > 2.2 {
		t.Errorf("T2 geomean slowdown %.2fx outside (1.15, 2.2)", t2)
	}
	if t3 < 2.0 || t3 > 9.0 {
		t.Errorf("T3 geomean slowdown %.2fx outside (2.0, 9.0)", t3)
	}
	if !(t1 < t2 && t2 < t3) {
		t.Errorf("tier gaps not ordered: %v %v %v", t1, t2, t3)
	}
}

func TestDCPMvsDRAMGap(t *testing.T) {
	// Paper §IV-A: DCPM-bound executions take substantially more time
	// than DRAM-bound ones (they report +76.7% on their testbed).
	m := fullMatrix(t)
	logSum, n := 0.0, 0
	for _, w := range workloads.Names() {
		for _, s := range workloads.AllSizes() {
			dram := m[CellKeyT{w, s, memsim.Tier0}].Duration + m[CellKeyT{w, s, memsim.Tier1}].Duration
			dcpm := m[CellKeyT{w, s, memsim.Tier2}].Duration + m[CellKeyT{w, s, memsim.Tier3}].Duration
			logSum += ln(float64(dcpm) / float64(dram))
			n++
		}
	}
	ratio := exp(logSum / float64(n))
	t.Logf("geomean DCPM/DRAM execution time: %.2fx", ratio)
	if ratio < 1.3 || ratio > 6 {
		t.Errorf("DCPM/DRAM ratio %.2fx outside (1.3, 6)", ratio)
	}
}

func TestTakeaway1TierToleranceIsWorkloadDependent(t *testing.T) {
	m := fullMatrix(t)
	// Certain (workload, size) cells can move to remote memory nearly for
	// free (repartition-tiny, pagerank-tiny in the paper)...
	tolerant := 0
	for _, w := range workloads.Names() {
		if slowdown(m, w, workloads.Tiny, memsim.Tier1) < 1.06 {
			tolerant++
		}
	}
	if tolerant < 3 {
		t.Errorf("only %d workloads tolerate remote DRAM at tiny size; paper finds several", tolerant)
	}
	// ...while others pay heavily even on Tier 2.
	if s := slowdown(m, "lda", workloads.Large, memsim.Tier2); s < 1.8 {
		t.Errorf("lda/large Tier2 slowdown %.2fx too small; it is the most NVM-sensitive cell", s)
	}
}

func TestTakeaway1ALSNearlyConstant(t *testing.T) {
	// The paper: als shows almost constant execution time regardless of
	// input size and tier (its cost is iteration-dominated).
	m := fullMatrix(t)
	tiny := m[CellKeyT{"als", workloads.Tiny, memsim.Tier0}].Duration.Seconds()
	large := m[CellKeyT{"als", workloads.Large, memsim.Tier0}].Duration.Seconds()
	if large/tiny > 1.3 {
		t.Errorf("als large/tiny = %.2fx on Tier 0; paper shows near-constant time", large/tiny)
	}
	if s := slowdown(m, "als", workloads.Large, memsim.Tier2); s > 1.3 {
		t.Errorf("als Tier2 slowdown %.2fx; als should be tier-tolerant", s)
	}
}

func TestTakeaway2GapGrowsWithWorkloadSize(t *testing.T) {
	// The DRAM/DCPM performance gap widens as the input grows.
	m := fullMatrix(t)
	for _, w := range workloads.Names() {
		tiny := slowdown(m, w, workloads.Tiny, memsim.Tier2)
		large := slowdown(m, w, workloads.Large, memsim.Tier2)
		if large < tiny*0.95 {
			t.Errorf("%s: Tier2 slowdown shrank with size (%.2fx -> %.2fx)", w, tiny, large)
		}
	}
	// And it is disproportional: the Tier3 gap grows faster than Tier2's.
	growth := func(tier memsim.TierID) float64 {
		g := 0.0
		for _, w := range workloads.Names() {
			g += slowdown(m, w, workloads.Large, tier) / slowdown(m, w, workloads.Tiny, tier)
		}
		return g
	}
	if growth(memsim.Tier3) <= growth(memsim.Tier2) {
		t.Error("Tier3 gap growth should exceed Tier2's (remote + NVM compounding)")
	}
}

func TestTakeaway3AccessCountsDrivePerformance(t *testing.T) {
	m := fullMatrix(t)
	// The access-heavy applications issue an order of magnitude more
	// media accesses at large size than the light ones.
	heavy := m[CellKeyT{"lda", workloads.Large, memsim.Tier2}].Metrics
	light := m[CellKeyT{"als", workloads.Large, memsim.Tier2}].Metrics
	if heavy.MediaReads+heavy.MediaWrites < 10*(light.MediaReads+light.MediaWrites) {
		t.Errorf("lda accesses (%d) not >=10x als accesses (%d)",
			heavy.MediaReads+heavy.MediaWrites, light.MediaReads+light.MediaWrites)
	}
	// lda is the most write-intensive workload and the most Tier2-hurt.
	for _, w := range workloads.Names() {
		if w == "lda" {
			continue
		}
		o := m[CellKeyT{w, workloads.Large, memsim.Tier2}].Metrics
		if o.MediaWrites > heavy.MediaWrites {
			t.Errorf("%s writes (%d) exceed lda writes (%d)", w, o.MediaWrites, heavy.MediaWrites)
		}
		if slowdown(m, w, workloads.Large, memsim.Tier2) > slowdown(m, "lda", workloads.Large, memsim.Tier2) {
			t.Errorf("%s Tier2 slowdown exceeds lda's; write-heavy lda should hurt most", w)
		}
	}
}

func TestSensitivityGroups(t *testing.T) {
	// §IV-A: the shuffle/aggregation-heavy group degrades far more on
	// DCPM than the compute-heavy group.
	m := fullMatrix(t)
	groupMean := func(names []string, tier memsim.TierID) float64 {
		sum, n := 0.0, 0
		for _, w := range names {
			for _, s := range workloads.AllSizes() {
				sum += slowdown(m, w, s, tier)
				n++
			}
		}
		return sum / float64(n)
	}
	sensitive := groupMean([]string{"repartition", "bayes", "lda", "pagerank"}, memsim.Tier2)
	tolerant := groupMean([]string{"als", "rf"}, memsim.Tier2)
	t.Logf("Tier2 mean slowdown: sensitive group %.2fx, tolerant group %.2fx", sensitive, tolerant)
	if sensitive < tolerant*1.15 {
		t.Errorf("sensitive group (%.2fx) not clearly above tolerant group (%.2fx)", sensitive, tolerant)
	}
}

func TestTakeaway5EnergyFollowsTime(t *testing.T) {
	m := fullMatrix(t)
	// DCPM device groups consume more energy per DIMM than DRAM despite
	// cheaper per-byte accesses, because runs stretch (paper: DRAM ~64%
	// less). Geomean band check.
	logSum, n := 0.0, 0
	for _, w := range workloads.Names() {
		for _, s := range workloads.AllSizes() {
			dram := m[CellKeyT{w, s, memsim.Tier0}].DRAMEnergy.PerDIMMJ
			dcpm := m[CellKeyT{w, s, memsim.Tier2}].DCPMEnergy.PerDIMMJ
			logSum += ln(dcpm / dram)
			n++
		}
	}
	ratio := exp(logSum / float64(n))
	t.Logf("geomean per-DIMM energy DCPM/DRAM: %.2fx", ratio)
	if ratio < 1.5 || ratio > 6 {
		t.Errorf("energy ratio %.2fx outside (1.5, 6)", ratio)
	}
	// Energy tracks execution time within each technology: longer DCPM
	// runs consume more DCPM energy.
	ldaT := m[CellKeyT{"lda", workloads.Large, memsim.Tier2}]
	alsT := m[CellKeyT{"als", workloads.Large, memsim.Tier2}]
	if ldaT.DCPMEnergy.TotalJ <= alsT.DCPMEnergy.TotalJ {
		t.Error("lda (longest Tier2 run) should consume the most DCPM energy")
	}
	// sort and als scale to larger inputs without blowing up energy. (The
	// band sat at 3 before sortPartition charged its write-back stream;
	// sort-large now carries that extra legitimate traffic.)
	for _, w := range []string{"sort", "als"} {
		tiny := m[CellKeyT{w, workloads.Tiny, memsim.Tier0}].DRAMEnergy.TotalJ
		large := m[CellKeyT{w, workloads.Large, memsim.Tier0}].DRAMEnergy.TotalJ
		if large/tiny > 3.5 {
			t.Errorf("%s DRAM energy grows %.1fx tiny->large; paper calls it a cheap-scaling candidate", w, large/tiny)
		}
	}
}

func ln(x float64) float64  { return math.Log(x) }
func exp(x float64) float64 { return math.Exp(x) }
