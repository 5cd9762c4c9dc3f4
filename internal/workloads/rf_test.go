package workloads

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ml"
	"repro/internal/rdd"
)

// The reference below is the map-keyed histogram rf used before the dense
// slab: a cell exists once an example lands in it, cells are emitted by
// probing the features × bins × nodes cube, and the driver merges per node
// with one BinStats.Add per collected pair. The dense path must reproduce
// its pairs, order, cell count and merged bins exactly — those are what
// Collect sizes and what the charges are computed from.

func refRFPartition(tr *ml.Tree, level, features, bins int, in []Example) []rdd.Pair[NodeFeatBin, ml.BinStats] {
	local := map[NodeFeatBin]ml.BinStats{}
	for _, e := range in {
		node := tr.NodeOf(e.Bins, level)
		for f := 0; f < features; f++ {
			k := NodeFeatBin{node, f, e.Bins[f]}
			s, ok := local[k]
			if !ok {
				s = ml.NewBinStats(rfClasses)
			}
			s.Counts[e.Label]++
			local[k] = s
		}
	}
	out := make([]rdd.Pair[NodeFeatBin, ml.BinStats], 0, len(local))
	for f := 0; f < features; f++ {
		for b := 0; b < bins; b++ {
			for node := 0; node < len(tr.Nodes); node++ {
				if s, ok := local[NodeFeatBin{node, f, b}]; ok {
					out = append(out, rdd.KV(NodeFeatBin{node, f, b}, s))
				}
			}
		}
	}
	if len(out) != len(local) {
		panic("reference emitted a different number of cells than it holds")
	}
	return out
}

func refRFMerge(partHists []rdd.Pair[NodeFeatBin, ml.BinStats], features, bins int) map[int][][]ml.BinStats {
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

func TestRFDenseHistogramMatchesMapReference(t *testing.T) {
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
			var got, want []rdd.Pair[NodeFeatBin, ml.BinStats]
			for _, in := range parts {
				local := newRFHist(features, bins, level)
				for _, e := range in {
					local.add(tr.NodeOf(e.Bins, level), e)
				}
				g, w := local.pairs(), refRFPartition(tr, level, features, bins, in)
				if len(g) != len(w) || cap(g) != len(w) {
					t.Fatalf("trial %d level %d: dense path emits %d cells (cap %d), reference holds %d",
						trial, level, len(g), cap(g), len(w))
				}
				got, want = append(got, g...), append(want, w...)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d level %d: dense pairs differ from the reference's", trial, level)
			}

			merged := newRFHist(features, bins, level)
			merged.merge(got)
			ref := refRFMerge(want, features, bins)
			reached := 0
			for node := 0; node < merged.nodes; node++ {
				nb := merged.node(node)
				if nb == nil {
					if _, ok := ref[node]; ok {
						t.Fatalf("trial %d level %d: dense merge dropped node %d", trial, level, node)
					}
					continue
				}
				reached++
				if !reflect.DeepEqual(nb, ref[node]) {
					t.Fatalf("trial %d level %d node %d: merged bins differ from the reference's", trial, level, node)
				}
			}
			if reached != len(ref) {
				t.Fatalf("trial %d level %d: dense merge reached %d nodes, reference %d", trial, level, reached, len(ref))
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
