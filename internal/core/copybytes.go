package core

import (
	"fmt"

	"repro/internal/executor"
	"repro/internal/hibench"
	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// The copy-bytes study is a virtual experiment enabled by the columnar
// chunk shuffle: map outputs are block-manager-owned chunk sets, and a
// reduce task co-resident with the writer reads them by reference — no
// second pass over the shuffle tier. The memsim copy ledger records, per
// tier, how many chunk bytes were served by reference (LocalBytes) versus
// pulled across executors (RemoteBytes). On DCPM the avoided copies are
// disproportionately valuable: the paper's 256B XPLine write
// amplification means every byte NOT re-materialized on the DCPM shuffle
// tier also avoids its amplified media cost, so LocalBytes with the
// shuffle placed on Tier 2 is exactly the "copy bytes saved on DCPM" a
// shared-pool (Sparkle-style) shuffle buys over a copy-based one.
//
// The ledger is observational — the study's Duration column is untouched
// by it — so the frozen virtual-time ledger of every other experiment is
// byte-identical with the ledger present.

// CopyPoint is one cell of the copy-bytes study.
type CopyPoint struct {
	Workload  string
	Executors int
	// ShuffleTier is where map-output chunks land.
	ShuffleTier memsim.TierID
	Duration    sim.Time
	// Copies is the ledger of the shuffle tier.
	Copies memsim.CopyCounters
}

// CopyStudy is the copy-bytes report for a set of workloads.
type CopyStudy struct {
	Size   workloads.Size
	Points []CopyPoint
}

// CopyStudyWorkloads are the shuffle-heavy defaults: the two pure-shuffle
// micros plus the iterative joins whose cogroups dominate shuffle volume.
func CopyStudyWorkloads() []string {
	return []string{"sort", "repartition", "bayes", "pagerank"}
}

// CopyStudy measures the shuffle-copy ledger for each workload with
// map-output chunks landing on DCPM (heap stays on DRAM, the placement
// §IV-G recommends), at 1 executor (every reduce co-resident: the
// shared-pool best case) and 4 executors (3/4 of chunk reads cross
// executors and must copy).
func (e *Evaluator) CopyStudy(names []string, size workloads.Size, seed int64) *CopyStudy {
	study := &CopyStudy{Size: size}
	placement := executor.Placement{Heap: memsim.Tier0, Shuffle: memsim.Tier2, Cache: memsim.Tier0}
	var specs []hibench.RunSpec
	for _, w := range names {
		for _, execs := range []int{1, 4} {
			specs = append(specs, hibench.RunSpec{
				Workload: w, Size: size, Tier: placement.Heap,
				Executors: execs, CoresPerExecutor: 10,
				Placement: &placement, Seed: seed,
			})
		}
	}
	for i, res := range e.Run(specs...) {
		study.Points = append(study.Points, CopyPoint{
			Workload:    specs[i].Workload,
			Executors:   specs[i].Executors,
			ShuffleTier: placement.Shuffle,
			Duration:    res.Duration,
			Copies:      res.Copies[placement.Shuffle],
		})
	}
	return study
}

// Table renders the study.
func (s *CopyStudy) Table() Table {
	t := Table{
		Title: fmt.Sprintf("Shuffle copy bytes saved on DCPM (%s, shuffle on Tier 2)", s.Size),
		Headers: []string{"workload", "executors", "chunk reads", "by-ref reads",
			"chunk bytes", "bytes by-ref", "bytes copied", "saved", "time [s]"},
	}
	for _, p := range s.Points {
		c := p.Copies
		t.AddRow(p.Workload, fmt.Sprintf("%d", p.Executors),
			fmt.Sprintf("%d", c.TotalChunks()), fmt.Sprintf("%d", c.LocalChunks),
			fmt.Sprintf("%d", c.TotalBytes()), fmt.Sprintf("%d", c.LocalBytes),
			fmt.Sprintf("%d", c.RemoteBytes),
			fmt.Sprintf("%.0f%%", 100*c.SavedFraction()),
			F(p.Duration.Seconds()))
	}
	return t
}
