package workloads

import (
	"math/bits"

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

// RandomForest is HiBench's rf: an ensemble of decision trees built
// level-wise in the MLlib style — each level runs one distributed
// histogram job (every partition counts its examples into (node, feature,
// bin) class counts, which the driver collects and sums) and the driver
// picks the best splits.
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

// rfNodes is the number of tree nodes an example can sit in at level: the
// whole tree down to the level, since examples parked in an early leaf
// stay there.
func rfNodes(level int) int { return (1 << (level + 1)) - 1 }

// rfHist is one tree level's class histogram as a single dense slab laid
// out [feat][bin][node][class] over rfNodes(level) nodes. The driver sums
// the partitions' rfPartials into one and reads each node's split
// statistics out of it.
type rfHist struct {
	counts                []int64
	features, bins, nodes int
}

func newRFHist(features, bins, level int) rfHist {
	nodes := rfNodes(level)
	return rfHist{make([]int64, features*bins*nodes*rfClasses), features, bins, nodes}
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

// sum adds a partition's partial into h. int64 sums do not depend on the
// order the partials arrive in.
func (h rfHist) sum(p rfPartial) {
	for i := 0; i < len(p.cells); i += rfStride {
		c := h.cell(int(p.cells[i]))
		for k, n := range p.cells[i+1 : i+rfStride] {
			c[k] += n
		}
	}
}

// rfPartial is one partition's share of a tree level's histogram: the
// cells its examples reached, in slab order, each stored as rfStride
// int64s — the cell's slab index, then its class counts. A partition
// ships it to the driver as its one record. On the ledger each cell
// weighs the ((node, feature, bin), BinStats) pair that map-keyed
// histogram aggregation ships.
type rfPartial struct {
	cells []int64
}

// rfStride is the length of one cell of an rfPartial.
const rfStride = 1 + rfClasses

// rfCellKeyBytes is what each cell of an rfPartial is charged for its
// (node, feature, bin) key: SizeOf's default for a struct key.
const rfCellKeyBytes = 32

// len returns the number of cells in p.
func (p rfPartial) len() int { return len(p.cells) / rfStride }

// ByteSize implements rdd.Sized.
func (p rfPartial) ByteSize() int64 { return int64(p.len()) * (rfCellKeyBytes + 24 + 8*rfClasses) }

// fillRFPartial counts a partition's examples into its partial at one
// tree level. It fills the partial one feature at a time: the examples go
// into a bins × nodes row of the feature's cells, each setting its cell's
// occupancy bit, and walking the bits in order moves the reached cells
// out in slab order, clearing the row for the next feature. The partial
// and the scratch (each example's node, the row, its bits) share one
// allocation, sized for the most cells the examples can reach.
func fillRFPartial(tr *ml.Tree, level, features, bins int, in []Example) rfPartial {
	if len(in) == 0 {
		return rfPartial{}
	}
	nodes := rfNodes(level)
	row := bins * nodes
	most := features * min(len(in), row) * rfStride
	page := make([]int64, most+len(in)+row*rfClasses+(row+63)/64)
	out, scratch := page[:0:most], page[most:]
	at, scratch := scratch[:len(in)], scratch[len(in):]
	counts, occupied := scratch[:row*rfClasses], scratch[row*rfClasses:]
	for i, e := range in {
		at[i] = int64(tr.NodeOf(e.Bins, level))
	}
	for f := 0; f < features; f++ {
		for i, e := range in {
			c := e.Bins[f]*nodes + int(at[i])
			counts[c*rfClasses+e.Label]++
			occupied[c>>6] |= 1 << (c & 63)
		}
		for wi, word := range occupied {
			for w := uint64(word); w != 0; w &= w - 1 {
				c := wi<<6 + bits.TrailingZeros64(w)
				cell := counts[c*rfClasses : (c+1)*rfClasses]
				out = append(append(out, int64(f*row+c)), cell...)
				clear(cell)
			}
			occupied[wi] = 0
		}
	}
	return rfPartial{cells: out}
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
	examples := rdd.Cache(rfExamplesGen.Source(app, "rf-examples", p, p.Examples, 0))

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
			// every partition counts its examples into one sparse
			// rfPartial, which travels to the driver as its one record
			// (none for an empty partition), charged as the per-cell
			// ((node, feature, bin), BinStats) pairs it stands for.
			partHists := rdd.Collect(rdd.MapPartitions(sample,
				func(ctx *executor.TaskContext, part int, in []Example) []rfPartial {
					local := fillRFPartial(tr, level, p.Features, p.Bins, in)
					for range in {
						// Node routing + one dense histogram row update
						// per feature: streaming array writes.
						ctx.MemRand(memsim.Read, 1, 64)
					}
					ctx.CPUPerRecord(len(in)*p.Features, ctx.Cost.ReduceNS/4)
					ctx.MemSeq(memsim.Write, int64(local.len())*int64(8*rfClasses+24))
					if local.len() == 0 {
						return nil
					}
					return []rfPartial{local}
				}))

			// Driver: sum the partials into one slab, pick best split per
			// node.
			merged := newRFHist(p.Features, p.Bins, level)
			for _, part := range partHists {
				merged.sum(part)
			}
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
