package workloads

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/memsim"
	"repro/internal/ml"
	"repro/internal/rdd"
)

// Per-workload access-shape tests: these pin down the traffic signatures
// that drive the paper's per-application results, so a refactor that
// silently changes a workload's memory character fails here rather than
// in the (slower, banded) takeaway suite.

func runOnTier2(t *testing.T, w Workload, size Size) (Summary, *cluster.App) {
	t.Helper()
	app := testAppOn(memsim.Tier2)
	s := w.Run(app, size)
	return s, app
}

func TestSortShape(t *testing.T) {
	_, app := runOnTier2(t, NewSort(), Small)
	c := app.Tier().Counters()
	// Sort is streaming: most media traffic must be sequential, i.e. the
	// media line count is far below one line per logical op.
	if c.ReadOps == 0 || c.WriteOps == 0 {
		t.Fatal("no traffic")
	}
	m := app.Metrics()
	// Input is 3.2 MB; total media traffic stays within a small multiple
	// (a handful of passes), not orders of magnitude.
	inputBytes := int64(32_000 * 100)
	if m.MediaReadBytes+m.MediaWriteBytes > 12*inputBytes {
		t.Errorf("sort moved %d media bytes for %d input bytes: not streaming",
			m.MediaReadBytes+m.MediaWriteBytes, inputBytes)
	}
	if m.ShuffleRead < inputBytes/2 {
		t.Errorf("sort shuffled only %d bytes for %d input", m.ShuffleRead, inputBytes)
	}
}

func TestRepartitionShape(t *testing.T) {
	_, app := runOnTier2(t, NewRepartition(), Small)
	m := app.Metrics()
	inputBytes := int64(32_000 * 100)
	// A pure shuffle ships everything across the wire exactly once.
	if m.ShuffleRead < inputBytes || m.ShuffleRead > 2*inputBytes {
		t.Errorf("repartition shuffle bytes %d vs input %d: must be ~1 pass", m.ShuffleRead, inputBytes)
	}
}

func TestBayesShape(t *testing.T) {
	_, app := runOnTier2(t, NewBayes(), Large)
	m := app.Metrics()
	// Bayes scoring probes the likelihood table: read-dominated.
	if wr := m.WriteRatio(); wr > 0.45 {
		t.Errorf("bayes write ratio %.2f; scoring should be read-dominated", wr)
	}
	if m.MediaReads < 500_000 {
		t.Errorf("bayes media reads %d suspiciously low for the large corpus", m.MediaReads)
	}
}

func TestLDAShapeMostWriteIntensive(t *testing.T) {
	_, ldaApp := runOnTier2(t, NewLDA(), Large)
	ldaWrites := ldaApp.Metrics().MediaWrites
	for _, other := range []Workload{NewSort(), NewBayes(), NewPageRank(), NewALS(), NewRandomForest()} {
		_, app := runOnTier2(t, other, Large)
		if w := app.Metrics().MediaWrites; w >= ldaWrites {
			t.Errorf("%s media writes (%d) >= lda (%d); lda must be the most write-heavy",
				other.Name(), w, ldaWrites)
		}
	}
}

func TestALSShapeComputeBound(t *testing.T) {
	// On local DRAM, ALS time is dominated by CPU (factor solves), not
	// memory stalls — which is exactly why it tolerates remote tiers.
	app := testApp()
	NewALS().Run(app, Large)
	m := app.Metrics()
	if m.StallNS > m.CPUNS {
		t.Errorf("als stalls (%.0f) exceed CPU (%.0f) on DRAM; should be compute-bound", m.StallNS, m.CPUNS)
	}
}

func TestPageRankMatchesReferenceImplementation(t *testing.T) {
	// Build a fixed graph, run the engine's join/reduce pagerank and the
	// single-node reference, and compare rank vectors.
	app := testApp()
	// Strongly connected, so the engine's canonical-Spark semantics
	// (pages without contributions drop out) and the reference agree.
	links := map[int][]int{
		0: {1, 2}, 1: {2, 5}, 2: {0, 3}, 3: {0, 4}, 4: {3, 0, 5}, 5: {4, 1},
	}
	var pairs []rdd.Pair[int, []int]
	for p, outs := range links {
		pairs = append(pairs, rdd.KV(p, outs))
	}
	// Deterministic order for Parallelize.
	for i := 0; i < len(pairs); i++ {
		for j := i + 1; j < len(pairs); j++ {
			if pairs[j].Key < pairs[i].Key {
				pairs[i], pairs[j] = pairs[j], pairs[i]
			}
		}
	}
	linksRDD := rdd.Cache(rdd.Parallelize(app, "links", pairs, 2))
	ranks := rdd.MapValues(linksRDD, func([]int) float64 { return 1.0 })
	const iters = 12
	for it := 0; it < iters; it++ {
		joined := rdd.Join(linksRDD, ranks, 3)
		contribs := rdd.FlatMap(joined, func(dst []rdd.Pair[int, float64], pr rdd.Pair[int, rdd.Two[[]int, float64]]) []rdd.Pair[int, float64] {
			outs := pr.Val.A
			share := pr.Val.B / float64(len(outs))
			for _, q := range outs {
				dst = append(dst, rdd.KV(q, share))
			}
			return dst
		})
		summed := rdd.ReduceByKey(contribs, func(a, b float64) float64 { return a + b }, 3)
		ranks = rdd.MapValues(summed, func(s float64) float64 {
			return (1 - ml.Damping) + ml.Damping*s
		})
	}
	got := map[int]float64{}
	for _, p := range rdd.Collect(ranks) {
		got[p.Key] = p.Val
	}
	want := ml.PageRankReference(links, iters)
	if len(got) != len(want) {
		t.Fatalf("engine ranks %d pages, reference %d", len(got), len(want))
	}
	for page, w := range want {
		if g := got[page]; math.Abs(g-w) > 0.02 {
			t.Errorf("page %d rank %.4f, reference %.4f", page, g, w)
		}
	}
}

func TestAccessCountsGrowWithSize(t *testing.T) {
	// Fig 2 middle: media accesses rise with the input for every
	// data-scaling workload.
	for _, w := range []Workload{NewSort(), NewRepartition(), NewBayes(), NewLDA(), NewPageRank()} {
		_, tinyApp := runOnTier2(t, w, Tiny)
		_, largeApp := runOnTier2(t, w, Large)
		tiny := tinyApp.Metrics()
		large := largeApp.Metrics()
		if large.MediaReads+large.MediaWrites <= tiny.MediaReads+tiny.MediaWrites {
			t.Errorf("%s: large accesses (%d) not above tiny (%d)",
				w.Name(), large.MediaReads+large.MediaWrites, tiny.MediaReads+tiny.MediaWrites)
		}
	}
}
