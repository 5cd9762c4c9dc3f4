package rdd

import (
	"repro/internal/executor"
	"repro/internal/memsim"
	"repro/internal/shuffle"
)

// Chunk is one reduce partition's columnar slice of a map task's shuffle
// output: parallel key and value columns carved from the map task's single
// backing page. Chunks cross the map/reduce boundary by reference — the
// shuffle store hands the same columns to every reader — so consumers must
// treat them as immutable and materialize rows only at their own output
// boundary.
type Chunk[K comparable, V any] struct {
	Keys []K
	Vals []V
}

// Len returns the number of records in the chunk.
func (c Chunk[K, V]) Len() int { return len(c.Keys) }

// chunkPage is one map task's whole shuffle output in compressed sparse
// row form: the key and value columns hold every record grouped by reduce
// partition, and reduce partition r's records are rows Off[r]:Off[r+1].
// It is the ChunkSet payload; fetchChunks carves each reduce partition's
// Chunk window from it, so a map task stores no per-reduce header.
type chunkPage[K comparable, V any] struct {
	Keys []K
	Vals []V
	Off  []int32 // len = reduce partitions + 1
}

// chunkify partitions one computed map partition of n records into a
// CSR chunk page. It never touches a record itself: route writes record
// i's reduce partition into targets[i], and scatter copies record i's key
// and value into the columns at slot next[targets[i]], advancing that
// cursor. A writer whose records are not pairs (SortBy's, Repartition's)
// thus chunks them without building a pair page first. The accessors take
// whole columns, not one record per call, because a closure call per
// record costs as much as the copy it makes. A histogram of the targets
// in Off[1:] sizes the page, an exclusive prefix sum turns each count
// into its partition's start, and the scatter uses Off[1:] as its cursor,
// leaving Off[r+1] at partition r's end: after the scatter Off is exactly
// the CSR offsets. The whole map output costs a fixed number of
// allocations (targets, key and value pages, Off, and the set's Items and
// Bytes) however many reduce partitions it feeds — the pre-chunk row path
// allocated one bucket slice per non-empty reduce. Charges are identical
// to the row path's: the data itself streams (sequential writes), only
// the per-chunk headers scatter. This is what keeps pure-shuffle
// workloads (sort, repartition) far less latency-sensitive than
// hash-aggregating ones — the paper's per-application sensitivity split.
// It also returns the set's per-reduce record counts and serialized
// bytes (a record's key bytes plus its value bytes, exactly the pair's,
// plus the 24-byte slice header that completes the SizeOfSlice
// equivalence the frozen ledger was built on; zero for an empty
// partition), so putChunks charges the chunk set without re-walking it.
// The sizers are resolved once by the caller.
func chunkify[K comparable, V any](ctx *executor.TaskContext, n, nparts int,
	route func(targets []int32), scatter func(targets []int32, next []int32, keys []K, vals []V),
	ks Sizer[K], vs Sizer[V]) (page *chunkPage[K, V], items []int, sizes []int64) {
	targets := make([]int32, n)
	route(targets)
	page = &chunkPage[K, V]{Keys: make([]K, n), Vals: make([]V, n), Off: make([]int32, nparts+1)}
	next := page.Off[1:]
	for _, b := range targets {
		next[b]++
	}
	items = make([]int, nparts)
	sizes = make([]int64, nparts)
	kf, kFixed := ks.Fixed()
	vf, vFixed := vs.Fixed()
	fixed := kFixed && vFixed
	off, used := int32(0), 0
	for b, c := range next {
		next[b] = off
		off += c
		if c > 0 {
			items[b] = int(c)
			used++
			if fixed {
				sizes[b] = 24 + int64(c)*(kf+vf)
			}
		}
	}
	scatter(targets, next, page.Keys, page.Vals)
	var bytes int64
	if fixed {
		bytes = int64(n) * (kf + vf)
	} else {
		for b := range items {
			if items[b] == 0 {
				continue
			}
			var sz int64
			for j := page.Off[b]; j < page.Off[b+1]; j++ {
				sz += ks.Of(page.Keys[j]) + vs.Of(page.Vals[j])
			}
			sizes[b] = 24 + sz
			bytes += sz
		}
	}
	ctx.CPUPerRecord(n, ctx.Cost.HashNS)
	ctx.ShuffleSeq(memsim.Write, bytes)
	ctx.ShuffleRand(memsim.Write, used, int64(used)*64)
	return page, items, sizes
}

// putChunks serializes and stages the map task's chunk page, charging
// each non-empty chunk from the bytes chunkify already accumulated. A map
// task that routed no records stages nothing, exactly like the row path
// wrote no segments — so crash recovery never resubmits tasks that had no
// output.
func putChunks[K comparable, V any](ctx *executor.TaskContext, shuffleID, mapPart int,
	page *chunkPage[K, V], items []int, sizes []int64) {
	nonEmpty := 0
	for reduce, n := range items {
		if n == 0 {
			continue
		}
		ctx.CPU(float64(sizes[reduce]) * ctx.Cost.SerDePerB)
		nonEmpty++
	}
	if nonEmpty == 0 {
		return
	}
	ctx.PutShuffleChunks(&shuffle.ChunkSet{
		Shuffle: shuffleID, MapPart: mapPart,
		Chunks: page, Items: items, Bytes: sizes,
	})
}

// writeChunks is the whole map side of a pair shuffle write: compute
// feeds chunkify feeds putChunks.
func writeChunks[K comparable, V any](ctx *executor.TaskContext, shuffleID, mapPart int,
	recs []Pair[K, V], p Partitioner[K], ks Sizer[K], vs Sizer[V]) {
	page, items, sizes := chunkify(ctx, len(recs), p.NumPartitions(),
		func(targets []int32) {
			for i := range recs {
				targets[i] = int32(p.PartitionFor(recs[i].Key))
			}
		},
		func(targets []int32, next []int32, keys []K, vals []V) {
			for i, b := range targets {
				j := next[b]
				next[b]++
				keys[j], vals[j] = recs[i].Key, recs[i].Val
			}
		}, ks, vs)
	putChunks(ctx, shuffleID, mapPart, page, items, sizes)
}

// fetchChunks fetches one reduce partition's inputs and charges every
// non-empty chunk's open/drain cost in map-partition order, returning the
// typed chunks (column windows borrowed by reference from each map
// task's page in the store) in that same order. Record iteration itself
// charges nothing, so charging all chunks up front is charge-for-charge
// identical to the row path's interleaved read-then-drain loop.
func fetchChunks[K comparable, V any](ctx *executor.TaskContext, shuffleID, reduce int) []Chunk[K, V] {
	sets := ctx.FetchShuffleChunks(shuffleID, reduce)
	n := 0
	for _, cs := range sets {
		if cs != nil && cs.Items[reduce] > 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Chunk[K, V], 0, n)
	for _, cs := range sets {
		if cs == nil || cs.Items[reduce] == 0 {
			continue
		}
		ctx.ReadShuffleChunk(cs, reduce)
		page := cs.Chunks.(*chunkPage[K, V])
		lo, hi := page.Off[reduce], page.Off[reduce+1]
		out = append(out, Chunk[K, V]{Keys: page.Keys[lo:hi:hi], Vals: page.Vals[lo:hi:hi]})
	}
	return out
}
