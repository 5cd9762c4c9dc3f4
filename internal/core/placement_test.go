package core

import (
	"testing"

	"repro/internal/executor"
	"repro/internal/hibench"
	"repro/internal/memsim"
	"repro/internal/workloads"
)

func TestStandardPlacementsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, sp := range executor.StandardPlacements() {
		if sp.Name == "" || seen[sp.Name] {
			t.Errorf("placement name %q empty or duplicated", sp.Name)
		}
		seen[sp.Name] = true
		if err := sp.P.Validate(); err != nil {
			t.Errorf("placement %s invalid: %v", sp.Name, err)
		}
	}
	if !seen["all-DRAM"] || !seen["all-NVM"] {
		t.Fatal("study must include the two uniform baselines")
	}
}

// The §IV-G payoff: for a shuffle-heavy workload, keeping only the heap on
// DRAM while shuffle data lives on NVM recovers most of the all-DRAM
// performance — far better than uniform NVM binding — while actually
// placing traffic on the DCPM tiers.
func TestPlacementRecoversPerformance(t *testing.T) {
	if testing.Short() {
		t.Skip("placement study skipped in -short")
	}
	study := must(sharedEval().PlacementStudy("pagerank", workloads.Large, 1))
	point := func(name string) PlacementPoint {
		for _, p := range study.Points {
			if p.Name == name {
				return p
			}
		}
		t.Fatalf("placement study has no point %q", name)
		return PlacementPoint{}
	}
	slowdown := func(name string) float64 {
		return float64(point(name).Duration) / float64(point("all-DRAM").Duration)
	}
	allNVM := slowdown("all-NVM")
	mixed := slowdown("heap-DRAM/shuffle-NVM")
	t.Logf("pagerank/large: all-NVM %.2fx, heap-DRAM/shuffle-NVM %.2fx", allNVM, mixed)
	if allNVM < 1.2 {
		t.Errorf("all-NVM slowdown %.2fx too small for the study to be meaningful", allNVM)
	}
	if mixed > 1.15 {
		t.Errorf("mixed placement slowdown %.2fx; keeping the heap on DRAM should recover most performance", mixed)
	}
	if mixed >= allNVM {
		t.Error("mixed placement must beat uniform NVM binding")
	}
	if point("heap-DRAM/shuffle-NVM").NVMShare <= 0 {
		t.Error("mixed placement moved no accesses to NVM; study is vacuous")
	}
	// And the inverse placement (hot heap on NVM) must NOT recover.
	if inv := slowdown("heap-NVM/shuffle-DRAM"); inv < mixed {
		t.Errorf("inverse placement (%.2fx) beats the sensible one (%.2fx)", inv, mixed)
	}
}

func TestPlacementStudyTableAndPanics(t *testing.T) {
	if testing.Short() {
		t.Skip("placement study skipped in -short")
	}
	study := must(sharedEval().PlacementStudy("repartition", workloads.Small, 1))
	tbl := study.Table()
	if len(tbl.Rows) != len(executor.StandardPlacements()) {
		t.Fatalf("table rows = %d, want %d", len(tbl.Rows), len(executor.StandardPlacements()))
	}
}

// Uniform placements through the Placement API must behave identically to
// the plain membind path.
func TestUniformPlacementMatchesMembind(t *testing.T) {
	if testing.Short() {
		t.Skip("placement equivalence skipped in -short")
	}
	p := executor.UniformPlacement(memsim.Tier2)
	via := mustDuration(t, "bayes", &p)
	plain := mustDuration(t, "bayes", nil)
	if via != plain {
		t.Fatalf("uniform placement (%v) differs from membind (%v)", via, plain)
	}
}

func mustDuration(t *testing.T, w string, p *executor.Placement) int64 {
	t.Helper()
	res, err := hibench.Run(hibench.RunSpec{
		Workload: w, Size: workloads.Small, Tier: memsim.Tier2, Placement: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	return int64(res.Duration)
}

// The interleave sweep must interpolate monotonically between the
// all-DRAM and all-NVM endpoints, and the endpoints must agree with the
// uniform placements.
func TestInterleaveSweepMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("interleave sweep skipped in -short")
	}
	points := must(sharedEval().InterleaveSweep("lda", workloads.Small, []float64{0, 0.5, 1.0}, 1))
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	if points[0].Slowdown != 1.0 {
		t.Fatalf("all-DRAM endpoint slowdown = %v", points[0].Slowdown)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Duration <= points[i-1].Duration {
			t.Fatalf("sweep not monotone at %v: %v <= %v",
				points[i].NVMFraction, points[i].Duration, points[i-1].Duration)
		}
	}
	// Midpoint sits strictly between the endpoints.
	mid := points[1].Slowdown
	if mid <= 1.05 || mid >= points[2].Slowdown {
		t.Fatalf("midpoint slowdown %v not between endpoints (1, %v)", mid, points[2].Slowdown)
	}
	tbl := InterleaveTable("lda", workloads.Small, points)
	if len(tbl.Rows) != 3 {
		t.Fatalf("table rows = %d", len(tbl.Rows))
	}
}

func TestInterleavePlacementValidation(t *testing.T) {
	bad := executor.Placement{Heap: memsim.Tier0, Shuffle: memsim.Tier0, Cache: memsim.Tier0,
		HeapSpillFrac: 1.5}
	if bad.Validate() == nil {
		t.Fatal("spill fraction 1.5 accepted")
	}
	bad.HeapSpillFrac = 0.5
	bad.HeapSpill = memsim.TierID(9)
	if bad.Validate() == nil {
		t.Fatal("invalid spill tier accepted")
	}
	good := bad
	good.HeapSpill = memsim.Tier2
	if err := good.Validate(); err != nil {
		t.Fatalf("valid interleave rejected: %v", err)
	}
}
