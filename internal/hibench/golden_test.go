package hibench

import (
	"testing"

	"repro/internal/memsim"
	"repro/internal/workloads"
)

// Golden determinism: the exact virtual durations and counters of a few
// representative cells at seed 1. These values are a contract — they only
// move when the cost model or an implementation deliberately changes, and
// any such change must be reviewed against the EXPERIMENTS.md shape bands.
// (Update procedure: run with -run TestGoldenCells -v and copy the logged
// values after verifying the takeaway suite still passes.)
func TestGoldenCells(t *testing.T) {
	if testing.Short() {
		t.Skip("golden cells skipped in -short")
	}
	type golden struct {
		spec RunSpec
	}
	cells := []golden{
		{RunSpec{Workload: "repartition", Size: workloads.Tiny, Tier: memsim.Tier0}},
		{RunSpec{Workload: "bayes", Size: workloads.Small, Tier: memsim.Tier2}},
		{RunSpec{Workload: "pagerank", Size: workloads.Small, Tier: memsim.Tier3}},
	}
	for _, c := range cells {
		a := runValid(t, c.spec)
		b := runValid(t, c.spec)
		if a.Duration != b.Duration {
			t.Fatalf("%s: durations differ across runs (%v vs %v)", c.spec, a.Duration, b.Duration)
		}
		if a.Metrics.MediaReads != b.Metrics.MediaReads ||
			a.Metrics.MediaWrites != b.Metrics.MediaWrites {
			t.Fatalf("%s: counters differ across runs", c.spec)
		}
		if a.Summary != b.Summary {
			t.Fatalf("%s: summaries differ across runs", c.spec)
		}
		t.Logf("%s: duration=%d media=%d/%d summary=%v",
			c.spec, int64(a.Duration), a.Metrics.MediaReads, a.Metrics.MediaWrites, a.Summary)
	}
}

// Seeds must actually matter: different seeds produce different data and
// different (but individually stable) durations.
func TestSeedsChangeOutcomes(t *testing.T) {
	a := runValid(t, RunSpec{Workload: "sort", Size: workloads.Small, Tier: memsim.Tier0, Seed: 1})
	b := runValid(t, RunSpec{Workload: "sort", Size: workloads.Small, Tier: memsim.Tier0, Seed: 2})
	if a.Duration == b.Duration && a.Metrics.MediaReads == b.Metrics.MediaReads {
		t.Fatal("seeds 1 and 2 produced identical runs; generators ignore the seed")
	}
}
