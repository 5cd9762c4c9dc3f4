package ml

import "fmt"

// BinStats accumulates per-(node, feature, bin) class histograms for
// level-wise distributed decision-tree building (the MLlib approach:
// executors histogram their partitions, histograms are reduced by key and
// the driver picks splits).
type BinStats struct {
	// Counts[class] is the number of samples of that class in the bin.
	Counts []int64
}

// NewBinStats returns empty stats for numClasses classes.
func NewBinStats(numClasses int) BinStats {
	return BinStats{Counts: make([]int64, numClasses)}
}

// accumulate adds other's counts into s in place.
func (s BinStats) accumulate(other BinStats) {
	if len(s.Counts) != len(other.Counts) {
		panic(fmt.Sprintf("ml: merging bin stats of %d vs %d classes", len(s.Counts), len(other.Counts)))
	}
	for i, c := range other.Counts {
		s.Counts[i] += c
	}
}

// Total returns the number of samples in the bin.
func (s BinStats) Total() int64 {
	var t int64
	for _, c := range s.Counts {
		t += c
	}
	return t
}

// ByteSize implements the engine's Sized interface for shuffle accounting.
func (s BinStats) ByteSize() int64 { return int64(24 + 8*len(s.Counts)) }

// Gini returns the Gini impurity of the class distribution.
func (s BinStats) Gini() float64 {
	t := s.Total()
	if t == 0 {
		return 0
	}
	g := 1.0
	for _, c := range s.Counts {
		p := float64(c) / float64(t)
		g -= p * p
	}
	return g
}

// Split describes a chosen binary split: go left when the feature's bin is
// <= Bin.
type Split struct {
	Feature int
	Bin     int
	Gain    float64
	// Leaf is set when no split improves impurity; Pred is the leaf's
	// majority class.
	Leaf bool
	Pred int
}

// BestSplit selects the impurity-minimizing split from the bins of one
// tree node: bins[feature][bin]. Returns the split and the flop count.
// minGain prunes negligible improvements into leaves.
func BestSplit(bins [][]BinStats, numClasses int, minGain float64) (Split, int) {
	if len(bins) == 0 {
		panic("ml: best split with no features")
	}
	flops := 0
	// node, left and right share one scratch allocation and are updated
	// in place per cut.
	scratch := make([]int64, 3*numClasses)
	node := BinStats{scratch[:numClasses:numClasses]}
	left := BinStats{scratch[numClasses : 2*numClasses : 2*numClasses]}
	right := BinStats{scratch[2*numClasses:]}
	// Node totals from feature 0 (identical across features).
	for _, b := range bins[0] {
		node.accumulate(b)
	}
	total := node.Total()
	if total == 0 {
		return Split{Leaf: true}, flops
	}
	parentGini := node.Gini()
	flops += 3 * numClasses

	best := Split{Leaf: true, Pred: node.majority(), Gain: 0}
	for f, fb := range bins {
		clear(left.Counts)
		for cut := 0; cut < len(fb)-1; cut++ {
			left.accumulate(fb[cut])
			for i, c := range left.Counts {
				right.Counts[i] = node.Counts[i] - c
			}
			lt, rt := left.Total(), right.Total()
			if lt == 0 || rt == 0 {
				continue
			}
			gain := parentGini -
				(float64(lt)/float64(total))*left.Gini() -
				(float64(rt)/float64(total))*right.Gini()
			flops += 6 * numClasses
			if gain > best.Gain+minGain {
				best = Split{Feature: f, Bin: cut, Gain: gain}
			}
		}
	}
	if best.Leaf {
		best.Pred = node.majority()
	}
	return best, flops
}

// Majority aggregates a node's bins (over feature 0, which sees every
// sample) and returns the majority class — used to label leaves at a
// tree's maximum depth.
func Majority(bins [][]BinStats, numClasses int) int {
	if len(bins) == 0 {
		return 0
	}
	node := NewBinStats(numClasses)
	for _, b := range bins[0] {
		node.accumulate(b)
	}
	return node.majority()
}

func (s BinStats) majority() int {
	best, bestN := 0, int64(-1)
	for c, n := range s.Counts {
		if n > bestN {
			best, bestN = c, n
		}
	}
	return best
}

// TreeNode is one node of a trained decision tree, stored in a dense
// level-order array (index 0 is the root; children of i are 2i+1, 2i+2).
type TreeNode struct {
	Split Split
}

// Tree is a trained fixed-depth binary decision tree over binned features.
type Tree struct {
	Nodes []TreeNode
}

// NewTree allocates a tree of the given depth with all-leaf nodes
// predicting class 0.
func NewTree(depth int) *Tree {
	if depth < 1 {
		panic("ml: tree depth must be >= 1")
	}
	n := (1 << (depth + 1)) - 1
	t := &Tree{Nodes: make([]TreeNode, n)}
	for i := range t.Nodes {
		t.Nodes[i].Split.Leaf = true
	}
	return t
}

// Predict walks binned features down the tree and returns the class.
func (t *Tree) Predict(bins []int) int {
	i := 0
	for {
		s := t.Nodes[i].Split
		if s.Leaf {
			return s.Pred
		}
		if bins[s.Feature] <= s.Bin {
			i = 2*i + 1
		} else {
			i = 2*i + 2
		}
		if i >= len(t.Nodes) {
			return s.Pred
		}
	}
}

// NodeOf returns the index of the node example `bins` reaches at `level`
// (0-based). Examples routed into a leaf early stay at that leaf.
func (t *Tree) NodeOf(bins []int, level int) int {
	i := 0
	for l := 0; l < level; l++ {
		s := t.Nodes[i].Split
		if s.Leaf {
			return i
		}
		if bins[s.Feature] <= s.Bin {
			i = 2*i + 1
		} else {
			i = 2*i + 2
		}
	}
	return i
}
