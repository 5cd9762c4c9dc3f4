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

// chunkify partitions one computed map partition of n records into
// per-reduce columnar chunks sharing one backing page. It never touches a
// record itself: route writes record i's reduce partition into
// targets[i], and scatter copies record i's key and value into the
// columns at slot next[targets[i]], advancing that cursor. A writer whose
// records are not pairs (SortBy's, Repartition's) thus chunks them
// without building a pair page first. The accessors take whole columns,
// not one record per call, because a closure call per record costs as
// much as the copy it makes. A histogram of the targets sizes the page
// and a prefix sum carves the per-reduce column windows, which the
// scatter fills. The whole map output costs three fixed allocations (key
// page, value page, chunk headers) however many reduce partitions it
// feeds — the pre-chunk row path allocated one bucket slice per
// non-empty reduce. Charges are identical to the row path's: the data
// itself streams (sequential writes), only the per-chunk headers
// scatter. This is what keeps pure-shuffle workloads (sort, repartition)
// far less latency-sensitive than hash-aggregating ones — the paper's
// per-application sensitivity split.
// It also returns per-chunk record bytes (a record's key bytes plus its
// value bytes, exactly the pair's), so putChunks charges the chunk set
// without re-walking it. The sizers are resolved once by the caller.
func chunkify[K comparable, V any](ctx *executor.TaskContext, n, nparts int,
	route func(targets []int32), scatter func(targets []int32, next []int, keys []K, vals []V),
	ks Sizer[K], vs Sizer[V]) ([]Chunk[K, V], []int64) {
	targets := make([]int32, n)
	route(targets)
	next := make([]int, nparts)
	for _, b := range targets {
		next[b]++
	}
	keys := make([]K, n)
	vals := make([]V, n)
	chunks := make([]Chunk[K, V], nparts)
	bucketBytes := make([]int64, nparts)
	kf, kFixed := ks.Fixed()
	vf, vFixed := vs.Fixed()
	fixed := kFixed && vFixed
	off, used := 0, 0
	for b, c := range next {
		chunks[b] = Chunk[K, V]{Keys: keys[off : off+c], Vals: vals[off : off+c]}
		next[b] = off
		off += c
		if c > 0 {
			used++
		}
		if fixed {
			bucketBytes[b] = int64(c) * (kf + vf)
		}
	}
	scatter(targets, next, keys, vals)
	var bytes int64
	if fixed {
		bytes = int64(n) * (kf + vf)
	} else {
		for b, ch := range chunks {
			var sz int64
			for j := range ch.Keys {
				sz += ks.Of(ch.Keys[j]) + vs.Of(ch.Vals[j])
			}
			bucketBytes[b] = sz
			bytes += sz
		}
	}
	ctx.CPUPerRecord(n, ctx.Cost.HashNS)
	ctx.ShuffleSeq(memsim.Write, bytes)
	ctx.ShuffleRand(memsim.Write, used, int64(used)*64)
	return chunks, bucketBytes
}

// putChunks serializes and stages the map task's chunk set, charging each
// non-empty chunk from the bytes chunkify already accumulated (the
// 24-byte slice header completes the SizeOfSlice equivalence the frozen
// ledger was built on). A map task that routed no records stages nothing,
// exactly like the row path wrote no segments — so crash recovery never
// resubmits tasks that had no output.
func putChunks[K comparable, V any](ctx *executor.TaskContext, shuffleID, mapPart int,
	chunks []Chunk[K, V], bucketBytes []int64) {
	items := make([]int, len(chunks))
	sizes := make([]int64, len(chunks))
	nonEmpty := 0
	for reduce := range chunks {
		n := chunks[reduce].Len()
		if n == 0 {
			continue
		}
		bytes := 24 + bucketBytes[reduce]
		ctx.CPU(float64(bytes) * ctx.Cost.SerDePerB)
		items[reduce] = n
		sizes[reduce] = bytes
		nonEmpty++
	}
	if nonEmpty == 0 {
		return
	}
	ctx.PutShuffleChunks(&shuffle.ChunkSet{
		Shuffle: shuffleID, MapPart: mapPart,
		Chunks: chunks, Items: items, Bytes: sizes,
	})
}

// writeChunks is the whole map side of a pair shuffle write: compute
// feeds chunkify feeds putChunks.
func writeChunks[K comparable, V any](ctx *executor.TaskContext, shuffleID, mapPart int,
	recs []Pair[K, V], p Partitioner[K], ks Sizer[K], vs Sizer[V]) {
	chunks, bucketBytes := chunkify(ctx, len(recs), p.NumPartitions(),
		func(targets []int32) {
			for i := range recs {
				targets[i] = int32(p.PartitionFor(recs[i].Key))
			}
		},
		func(targets []int32, next []int, keys []K, vals []V) {
			for i, b := range targets {
				j := next[b]
				next[b]++
				keys[j], vals[j] = recs[i].Key, recs[i].Val
			}
		}, ks, vs)
	putChunks(ctx, shuffleID, mapPart, chunks, bucketBytes)
}

// fetchChunks fetches one reduce partition's inputs and charges every
// non-empty chunk's open/drain cost in map-partition order, returning the
// typed chunks (borrowed by reference from the store) in that same order.
// Record iteration itself charges nothing, so charging all chunks up
// front is charge-for-charge identical to the row path's interleaved
// read-then-drain loop.
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
		out = append(out, cs.Chunks.([]Chunk[K, V])[reduce])
	}
	return out
}
