package workloads

import (
	"math/bits"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/memsim"
	"repro/internal/ml"
	"repro/internal/rdd"
)

// rfParams follows Table II's example counts, with feature counts scaled
// 10x down; trees and depth are fixed HiBench-style hyperparameters.
type rfParams struct {
	Examples, Features int
	Trees, Depth, Bins int
}

var rfSizes = [NumSizes]rfParams{
	Tiny:  {Examples: 10, Features: 10, Trees: 4, Depth: 3, Bins: 8},
	Small: {Examples: 100, Features: 50, Trees: 4, Depth: 3, Bins: 8},
	Large: {Examples: 1000, Features: 100, Trees: 4, Depth: 3, Bins: 8},
}

// NodeFeatBin keys the histogram shuffle of level-wise tree building.
type NodeFeatBin struct {
	Node, Feat, Bin int
}

// Hash64 implements rdd.Hashable.
func (k NodeFeatBin) Hash64() uint64 {
	return rdd.HashInt64(int64(k.Node)<<40 | int64(k.Feat)<<16 | int64(k.Bin))
}

// RandomForest is HiBench's rf: an ensemble of decision trees built
// level-wise in the MLlib style — each level runs one distributed
// histogram job (flatMap to (node, feature, bin) class counts, reduce by
// key) and the driver picks the best splits.
type RandomForest struct{}

// NewRandomForest returns the workload.
func NewRandomForest() *RandomForest { return &RandomForest{} }

// Name implements Workload.
func (w *RandomForest) Name() string { return "rf" }

// Category implements Workload.
func (w *RandomForest) Category() Category { return MachineLearning }

// Describe implements Workload.
func (w *RandomForest) Describe(size Size) string {
	p := rfSizes[size]
	return fmtParams("examples", p.Examples, "features", p.Features,
		"trees", p.Trees, "depth", p.Depth, "bins", p.Bins)
}

// rfClasses is the label arity of the generated examples.
const rfClasses = 2

// rfHist is one tree level's class histogram as a single dense slab laid
// out [feat][bin][node][class] over the nodes an example can sit in at
// that level — the whole tree down to the level, since examples parked in
// an early leaf stay there. A task fills one per partition with array
// writes; the driver sums the partitions' cells into one more. The slab's
// tail holds one occupancy bit per (feat, bin, node) cell, set by add, so
// pairs visits only the cells add touched.
type rfHist struct {
	counts, occupied      []int64
	features, bins, nodes int
}

func newRFHist(features, bins, level int) rfHist {
	nodes := (1 << (level + 1)) - 1
	cells := features * bins * nodes
	slab := make([]int64, cells*rfClasses+(cells+63)/64)
	n := cells * rfClasses
	return rfHist{slab[:n:n], slab[n:], features, bins, nodes}
}

// index is the slab position of one (node, feature, bin) cell, in cells.
func (h rfHist) index(node, feat, bin int) int {
	return (feat*h.bins+bin)*h.nodes + node
}

// cell returns the class counts of one cell index as a view of the slab,
// capped so an append cannot run into the next cell.
func (h rfHist) cell(c int) []int64 {
	i := c * rfClasses
	return h.counts[i : i+rfClasses : i+rfClasses]
}

// add counts one example sitting at node.
func (h rfHist) add(node int, e Example) {
	for f, b := range e.Bins[:h.features] {
		c := h.index(node, f, b)
		h.counts[c*rfClasses+e.Label]++
		h.occupied[c>>6] |= 1 << (c & 63)
	}
}

// pairs emits the cells add touched — every one non-empty — in (feat,
// bin, node) order, which is slab index order, with every Counts a view of
// the slab.
func (h rfHist) pairs() []rdd.Pair[NodeFeatBin, ml.BinStats] {
	n := 0
	for _, word := range h.occupied {
		n += bits.OnesCount64(uint64(word))
	}
	out := make([]rdd.Pair[NodeFeatBin, ml.BinStats], 0, n)
	for wi, word := range h.occupied {
		for w := uint64(word); w != 0; w &= w - 1 {
			c := wi<<6 + bits.TrailingZeros64(w)
			fb := c / h.nodes
			key := NodeFeatBin{Node: c % h.nodes, Feat: fb / h.bins, Bin: fb % h.bins}
			out = append(out, rdd.KV(key, ml.BinStats{Counts: h.cell(c)}))
		}
	}
	return out
}

// merge sums collected partition cells into h.
func (h rfHist) merge(parts []rdd.Pair[NodeFeatBin, ml.BinStats]) {
	for _, pr := range parts {
		c := h.cell(h.index(pr.Key.Node, pr.Key.Feat, pr.Key.Bin))
		for i, n := range pr.Val.Counts {
			c[i] += n
		}
	}
}

// node returns bins[feat][bin] views of one node's cells for
// ml.BestSplit/ml.Majority, or nil when no example reached the node.
func (h rfHist) node(node int) [][]ml.BinStats {
	stats := make([]ml.BinStats, h.features*h.bins)
	bins := make([][]ml.BinStats, h.features)
	reached := false
	for f := range bins {
		bins[f] = stats[f*h.bins:][:h.bins]
		for b := range bins[f] {
			bins[f][b].Counts = h.cell(h.index(node, f, b))
			reached = reached || !allZero(bins[f][b].Counts)
		}
	}
	if !reached {
		return nil
	}
	return bins
}

func allZero(counts []int64) bool {
	for _, c := range counts {
		if c != 0 {
			return false
		}
	}
	return true
}

// Run implements Workload.
func (w *RandomForest) Run(app *cluster.App, size Size) Summary {
	p := rfSizes[size]
	examples := rdd.Cache(rdd.Generate(app, "rf-examples", p.Examples, 0, func(r *rand.Rand, i int) Example {
		return genExample(r, i, p.Features, p.Bins)
	}))

	trees := make([]*ml.Tree, p.Trees)
	for t := 0; t < p.Trees; t++ {
		tree := ml.NewTree(p.Depth)
		treeSeed := app.Seed()*31 + int64(t)
		// Bootstrap: a deterministic ~80% subsample per tree, keyed by
		// example identity so sampling is independent of features/labels.
		sample := rdd.Filter(examples, func(e Example) bool {
			h := rdd.HashInt64(int64(e.ID)*1_000_003 + treeSeed)
			return h%100 < 80
		})
		for level := 0; level < p.Depth; level++ {
			tr := tree
			level := level
			// Distributed histogram job for this level, MLlib-style:
			// every partition fills one dense rfHist slab with array
			// writes, and only its non-empty cells travel to the driver.
			partHists := rdd.Collect(rdd.MapPartitions(sample,
				func(ctx *executor.TaskContext, part int, in []Example) []rdd.Pair[NodeFeatBin, ml.BinStats] {
					local := newRFHist(p.Features, p.Bins, level)
					for _, e := range in {
						local.add(tr.NodeOf(e.Bins, level), e)
						// Node routing + one dense histogram row update
						// per feature: streaming array writes.
						ctx.MemRand(memsim.Read, 1, 64)
					}
					ctx.CPUPerRecord(len(in)*p.Features, ctx.Cost.ReduceNS/4)
					out := local.pairs()
					ctx.MemSeq(memsim.Write, int64(len(out))*int64(8*rfClasses+24))
					return out
				}))

			// Driver: merge partition histograms, pick best split per node.
			merged := newRFHist(p.Features, p.Bins, level)
			merged.merge(partHists)
			lastLevel := level == p.Depth-1
			for node := 0; node < merged.nodes; node++ {
				bins := merged.node(node)
				if bins == nil {
					continue
				}
				split, _ := ml.BestSplit(bins, rfClasses, 1e-6)
				if lastLevel || 2*node+2 >= len(tree.Nodes) {
					// Bottom of the tree: label a majority leaf
					// instead of splitting into untrained children.
					split = ml.Split{Leaf: true, Pred: ml.Majority(bins, rfClasses)}
				}
				tree.Nodes[node].Split = split
			}
		}
		trees[t] = tree
	}

	// Scoring: broadcast the forest, majority vote.
	forestBytes := int64(p.Trees * len(trees[0].Nodes) * 48)
	bcast := rdd.NewBroadcast(app, trees, forestBytes)
	correctByPart := rdd.Collect(rdd.MapPartitions(examples,
		func(ctx *executor.TaskContext, part int, in []Example) []int {
			forest := bcast.Value(ctx)
			correct := 0
			for _, e := range in {
				votes := [rfClasses]int{}
				for _, tr := range forest {
					votes[tr.Predict(e.Bins)]++
				}
				ctx.CPU(float64(p.Trees*p.Depth) * ctx.Cost.FlopNS)
				ctx.MemRand(memsim.Read, p.Trees, int64(p.Trees*64))
				pred := 0
				if votes[1] > votes[0] {
					pred = 1
				}
				if pred == e.Label {
					correct++
				}
			}
			return []int{correct}
		}))
	correct := 0
	for _, c := range correctByPart {
		correct += c
	}
	return Summary{
		Records: p.Examples,
		Metric:  float64(correct) / float64(p.Examples),
		Note:    "accuracy",
	}
}
