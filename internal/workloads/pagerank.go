package workloads

import (
	"repro/internal/cluster"
	"repro/internal/ml"
	"repro/internal/rdd"
)

// pagerankParams compresses Table II's 50 / 5,000 / 500,000 page spread to
// 50 / 500 / 5,000 (1:10:100) to stay tractable while preserving ordering.
type pagerankParams struct {
	Pages, MaxDegree, Iterations int
}

var pagerankSizes = [NumSizes]pagerankParams{
	Tiny:  {Pages: 50, MaxDegree: 6, Iterations: 5},
	Small: {Pages: 500, MaxDegree: 10, Iterations: 5},
	Large: {Pages: 5000, MaxDegree: 14, Iterations: 5},
}

// PageRank is HiBench's websearch workload: the canonical Spark PageRank —
// a cached links dataset joined against the evolving ranks dataset every
// iteration, with contributions reduced by page. Each iteration performs
// two shuffles (join + reduce), making pagerank the most shuffle-intensive
// application of the suite.
type PageRank struct{}

// NewPageRank returns the workload.
func NewPageRank() *PageRank { return &PageRank{} }

// Name implements Workload.
func (w *PageRank) Name() string { return "pagerank" }

// Category implements Workload.
func (w *PageRank) Category() Category { return Websearch }

// Describe implements Workload.
func (w *PageRank) Describe(size Size) string {
	p := pagerankSizes[size]
	return fmtParams("pages", p.Pages, "maxdeg", p.MaxDegree, "iters", p.Iterations)
}

// Run implements Workload.
func (w *PageRank) Run(app *cluster.App, size Size) Summary {
	p := pagerankSizes[size]
	pages := webGraphGen.Source(app, "web-graph", p, p.Pages, 0)
	links := rdd.Cache(rdd.Map(pages, func(pg WebPage) rdd.Pair[int, []int] {
		return rdd.KV(pg.ID, pg.Links)
	}))
	ranks := rdd.MapValues(links, func([]int) float64 { return 1.0 })

	for it := 0; it < p.Iterations; it++ {
		joined := rdd.Join(links, ranks, 0)
		contribs := rdd.FlatMap(joined, func(dst []rdd.Pair[int, float64], pr rdd.Pair[int, rdd.Two[[]int, float64]]) []rdd.Pair[int, float64] {
			outs := pr.Val.A
			if len(outs) == 0 {
				return dst
			}
			share := pr.Val.B / float64(len(outs))
			for _, q := range outs {
				dst = append(dst, rdd.KV(q, share))
			}
			return dst
		})
		summed := rdd.ReduceByKey(contribs, func(a, b float64) float64 { return a + b }, 0)
		ranks = rdd.MapValues(summed, func(s float64) float64 {
			return (1 - ml.Damping) + ml.Damping*s
		})
	}

	final := rdd.Collect(ranks)
	mass := 0.0
	for _, pr := range final {
		mass += pr.Val
	}
	return Summary{Records: len(final), Metric: mass, Note: "rank_mass"}
}
