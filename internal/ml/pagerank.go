package ml

// PageRank constants shared by the distributed workload and the reference
// single-node implementation used in tests.
const (
	// Damping is the standard PageRank damping factor.
	Damping = 0.85
)

// PageRankReference computes PageRank on a single node for validation:
// links[page] lists the page's outgoing edges; iterations matches the
// distributed workload. Pages with no outlinks distribute nothing (the
// same simplification Spark's canonical example makes).
//
//simlint:allow unreached the reference ml's and workloads' tests compare the distributed pagerank against
func PageRankReference(links map[int][]int, iterations int) map[int]float64 {
	ranks := make(map[int]float64, len(links))
	for p := range links {
		ranks[p] = 1.0
	}
	for it := 0; it < iterations; it++ {
		contribs := make(map[int]float64, len(links))
		for p, outs := range links {
			if len(outs) == 0 {
				continue
			}
			share := ranks[p] / float64(len(outs))
			for _, q := range outs {
				contribs[q] += share
			}
		}
		next := make(map[int]float64, len(links))
		for p := range links {
			next[p] = (1 - Damping) + Damping*contribs[p]
		}
		ranks = next
	}
	return ranks
}
