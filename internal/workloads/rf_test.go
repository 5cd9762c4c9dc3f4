package workloads

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ml"
	"repro/internal/rdd"
)

// The reference below is the map-keyed histogram rf used before the sparse
// partials: a cell exists once an example lands in it, cells are emitted
// by probing the features × bins × nodes cube, and the driver merges per
// node with one BinStats.Add per collected pair. A partition's rfPartial
// must hold the reference's cells in its order with its counts, weigh
// what its pairs weigh, and the summed slab must reproduce its merged
// bins — those are what Collect sizes and what the charges are computed
// from.

// nodeFeatBin is the (node, feature, bin) key of one histogram cell, as
// the reference shuffles it.
type nodeFeatBin struct {
	Node, Feat, Bin int
}

func refRFPartition(tr *ml.Tree, level, features, bins int, in []Example) []rdd.Pair[nodeFeatBin, ml.BinStats] {
	local := map[nodeFeatBin]ml.BinStats{}
	for _, e := range in {
		node := tr.NodeOf(e.Bins, level)
		for f := 0; f < features; f++ {
			k := nodeFeatBin{node, f, e.Bins[f]}
			s, ok := local[k]
			if !ok {
				s = ml.NewBinStats(rfClasses)
			}
			s.Counts[e.Label]++
			local[k] = s
		}
	}
	out := make([]rdd.Pair[nodeFeatBin, ml.BinStats], 0, len(local))
	for f := 0; f < features; f++ {
		for b := 0; b < bins; b++ {
			for node := 0; node < len(tr.Nodes); node++ {
				if s, ok := local[nodeFeatBin{node, f, b}]; ok {
					out = append(out, rdd.KV(nodeFeatBin{node, f, b}, s))
				}
			}
		}
	}
	if len(out) != len(local) {
		panic("reference emitted a different number of cells than it holds")
	}
	return out
}

func refRFMerge(partHists []rdd.Pair[nodeFeatBin, ml.BinStats], features, bins int) map[int][][]ml.BinStats {
	byNode := map[int][][]ml.BinStats{}
	for _, pr := range partHists {
		k := pr.Key
		nb, ok := byNode[k.Node]
		if !ok {
			nb = make([][]ml.BinStats, features)
			for f := range nb {
				nb[f] = make([]ml.BinStats, bins)
				for b := range nb[f] {
					nb[f][b] = ml.NewBinStats(rfClasses)
				}
			}
			byNode[k.Node] = nb
		}
		for class, n := range pr.Val.Counts {
			nb[k.Feat][k.Bin].Counts[class] += n
		}
	}
	return byNode
}

// partialPairs decodes an rfPartial into the reference's pairs.
func partialPairs(p rfPartial, features, bins, level int) []rdd.Pair[nodeFeatBin, ml.BinStats] {
	nodes := rfNodes(level)
	var out []rdd.Pair[nodeFeatBin, ml.BinStats]
	for i := 0; i < len(p.cells); i += rfStride {
		c := int(p.cells[i])
		fb := c / nodes
		key := nodeFeatBin{Node: c % nodes, Feat: fb / bins, Bin: fb % bins}
		counts := append([]int64(nil), p.cells[i+1:i+rfStride]...)
		out = append(out, rdd.KV(key, ml.BinStats{Counts: counts}))
	}
	return out
}

func TestRFPartialMatchesMapReference(t *testing.T) {
	const features, bins, depth = 7, 8, 3
	// Root splits; node 1 stays a leaf, so at level 2 its examples are
	// parked above the level's own nodes (3..6); node 2 splits on.
	tr := ml.NewTree(depth)
	tr.Nodes[0].Split = ml.Split{Feature: 0, Bin: 3}
	tr.Nodes[2].Split = ml.Split{Feature: 1, Bin: 1}

	r := rand.New(rand.NewSource(11))
	parked := false
	for trial := 0; trial < 30; trial++ {
		parts := make([][]Example, 6)
		for i := range parts {
			if i == 2 || r.Intn(5) == 0 {
				continue // an empty partition
			}
			parts[i] = make([]Example, r.Intn(60))
			for j := range parts[i] {
				parts[i][j] = genExample(r, j, features, bins)
			}
		}
		for level := 0; level < depth; level++ {
			merged := newRFHist(features, bins, level)
			var want []rdd.Pair[nodeFeatBin, ml.BinStats]
			for _, in := range parts {
				got, ref := fillRFPartial(tr, level, features, bins, in), refRFPartition(tr, level, features, bins, in)
				if len(in) == 0 && got.cells != nil {
					t.Fatalf("trial %d level %d: an empty partition filled %d cells", trial, level, got.len())
				}
				if pairs := partialPairs(got, features, bins, level); got.len() != len(ref) || len(ref) > 0 && !reflect.DeepEqual(pairs, ref) {
					t.Fatalf("trial %d level %d: partial holds %d cells, reference %d, or they differ:\n%v\n%v",
						trial, level, got.len(), len(ref), pairs, ref)
				}
				if b, want := got.ByteSize(), rdd.SizeOfSlice(ref)-24; b != want {
					t.Fatalf("trial %d level %d: partial weighs %d bytes, the reference's pairs %d", trial, level, b, want)
				}
				if b, want := rdd.SizerFor[rfPartial]().Of(got), rdd.SizeOf(any(got)); b != want {
					t.Fatalf("trial %d level %d: registered sizer %d, SizeOf %d", trial, level, b, want)
				}
				merged.sum(got)
				want = append(want, ref...)
			}

			ref := refRFMerge(want, features, bins)
			reached := 0
			for node := 0; node < merged.nodes; node++ {
				nb := merged.node(node)
				if nb == nil {
					if _, ok := ref[node]; ok {
						t.Fatalf("trial %d level %d: summed slab dropped node %d", trial, level, node)
					}
					continue
				}
				reached++
				if !reflect.DeepEqual(nb, ref[node]) {
					t.Fatalf("trial %d level %d node %d: merged bins differ from the reference's", trial, level, node)
				}
			}
			if reached != len(ref) {
				t.Fatalf("trial %d level %d: summed slab reached %d nodes, reference %d", trial, level, reached, len(ref))
			}
			if _, ok := ref[1]; ok && level == 2 {
				parked = true
			}
		}
	}
	if !parked {
		t.Fatal("fixture lost its early leaf: no example was parked at node 1 on level 2")
	}
}
