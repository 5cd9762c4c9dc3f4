package rdd

import (
	"repro/internal/executor"
	"repro/internal/memsim"
)

// Two is a generic 2-tuple, the value type of joins.
type Two[A, B any] struct {
	A A
	B B
}

// ByteSize implements Sized.
func (t Two[A, B]) ByteSize() int64 { return SizeOf(any(t.A)) + SizeOf(any(t.B)) }

// CoGrouped holds the grouped values of both sides of a cogroup.
type CoGrouped[V, W any] struct {
	Left  []V
	Right []W
}

// ByteSize implements Sized.
func (c CoGrouped[V, W]) ByteSize() int64 {
	total := int64(48)
	for i := range c.Left {
		total += SizeOf(any(c.Left[i]))
	}
	for i := range c.Right {
		total += SizeOf(any(c.Right[i]))
	}
	return total
}

// MapValues transforms the value of each pair, keeping the key (and thus
// the partitioning) intact.
func MapValues[K comparable, V, U any](r *RDD[Pair[K, V]], f func(V) U) *RDD[Pair[K, U]] {
	return Map(r, func(p Pair[K, V]) Pair[K, U] { return KV(p.Key, f(p.Val)) })
}

// Keys projects the keys of a pair dataset.
func Keys[K comparable, V any](r *RDD[Pair[K, V]]) *RDD[K] {
	return Map(r, func(p Pair[K, V]) K { return p.Key })
}

// Values projects the values of a pair dataset.
func Values[K comparable, V any](r *RDD[Pair[K, V]]) *RDD[V] {
	return Map(r, func(p Pair[K, V]) V { return p.Val })
}

// aggOutputBytes is the single-pass replacement for SizeOfSlice over an
// aggregation's output: the slice header plus the key bytes accumulated
// at insert time plus the combiner values — constant-folded when the
// combiner type is fixed-size, a single non-boxing value sweep
// otherwise. Must equal SizeOfSlice(out) exactly; the charged-bytes
// parity tests pin this.
func aggOutputBytes[K comparable, C any](out []Pair[K, C], keyBytes int64, cs Sizer[C]) int64 {
	bytes := int64(24) + keyBytes
	if f, ok := cs.Fixed(); ok {
		bytes += int64(len(out)) * f
	} else {
		for i := range out {
			bytes += cs.Of(out[i].Val)
		}
	}
	return bytes
}

// localCombine aggregates a record batch in an insertion-ordered hash map,
// charging hash-table traffic (random probes and inserts).
func localCombine[K comparable, V, C any](ctx *executor.TaskContext, recs []Pair[K, V],
	create func(V) C, merge func(C, V) C,
	ps Sizer[Pair[K, V]], ks Sizer[K], cs Sizer[C]) []Pair[K, C] {
	index := make(map[K]int, len(recs))
	out := make([]Pair[K, C], 0, len(recs)/2+1)
	var probeBytes, keyBytes int64
	for _, rec := range recs {
		probeBytes += ps.Of(rec)
		if i, ok := index[rec.Key]; ok {
			out[i].Val = merge(out[i].Val, rec.Val)
		} else {
			index[rec.Key] = len(out)
			keyBytes += ks.Of(rec.Key)
			out = append(out, KV(rec.Key, create(rec.Val)))
		}
	}
	ctx.CPUPerRecord(len(recs), ctx.Cost.HashNS+ctx.Cost.ReduceNS)
	ctx.MemRand(memsim.Read, len(recs), probeBytes)
	if len(out) > 0 {
		ctx.MemRand(memsim.Write, len(out), aggOutputBytes(out, keyBytes, cs))
	}
	return out
}

// CombineByKey is the general shuffle aggregation underlying reduceByKey:
// map tasks pre-aggregate before writing segments (Spark's combiner).
func CombineByKey[K comparable, V, C any](r *RDD[Pair[K, V]],
	create func(V) C, mergeValue func(C, V) C, mergeCombiners func(C, C) C,
	parts int) *RDD[Pair[K, C]] {

	d := r.base.driver
	if parts <= 0 {
		parts = d.DefaultParallelism()
	}
	// Resolve the partitioner's hasher and the record sizers once for the
	// whole operation; per-record work in the closures below never boxes.
	part := NewHashPartitioner[K](parts)
	ks, cs := SizerFor[K](), SizerFor[C]()
	ps := PairSizer(ks, SizerFor[V]())
	pcs := PairSizer(ks, cs)
	shuffleID := d.NextShuffleID()

	dep := &ShuffleDep{
		P:         r.base,
		ShuffleID: shuffleID,
		WriteMap: func(ctx *executor.TaskContext, mapPart int) {
			combined := localCombine(ctx, r.Compute(ctx, mapPart), create, mergeValue, ps, ks, cs)
			writeChunks(ctx, shuffleID, mapPart, combined, part, pcs)
		},
	}
	return newRDD(d, "combineByKey", parts, nil, []*ShuffleDep{dep}, func(ctx *executor.TaskContext, reduce int) []Pair[K, C] {
		return mergeChunks[K, C, C](ctx, shuffleID, reduce,
			func(c C) C { return c }, mergeCombiners, pcs, ks, cs)
	})
}

// mergeChunks drains one reduce partition's borrowed chunks into an
// insertion-ordered aggregation map, reading the columns in place.
func mergeChunks[K comparable, V, C any](ctx *executor.TaskContext, shuffleID, reduce int,
	create func(V) C, merge func(C, V) C,
	ps Sizer[Pair[K, V]], ks Sizer[K], cs Sizer[C]) []Pair[K, C] {
	index := make(map[K]int)
	var out []Pair[K, C]
	var probeBytes, keyBytes int64
	var n int
	for _, ch := range fetchChunks[K, V](ctx, shuffleID, reduce) {
		for j := range ch.Keys {
			k, v := ch.Keys[j], ch.Vals[j]
			probeBytes += ps.Of(KV(k, v))
			if i, ok := index[k]; ok {
				out[i].Val = merge(out[i].Val, v)
			} else {
				index[k] = len(out)
				keyBytes += ks.Of(k)
				out = append(out, KV(k, create(v)))
			}
		}
		n += ch.Len()
	}
	ctx.CPUPerRecord(n, ctx.Cost.HashNS+ctx.Cost.ReduceNS)
	ctx.MemRand(memsim.Read, n, probeBytes)
	if len(out) > 0 {
		ctx.MemRand(memsim.Write, len(out), aggOutputBytes(out, keyBytes, cs))
	}
	return out
}

// ReduceByKey merges values per key with f, combining map-side.
func ReduceByKey[K comparable, V any](r *RDD[Pair[K, V]], f func(V, V) V, parts int) *RDD[Pair[K, V]] {
	return CombineByKey(r, func(v V) V { return v }, f, f, parts)
}

// GroupByKey gathers all values per key without map-side combining (like
// Spark, it ships every record across the shuffle). Each reduce partition
// carves its groups out of one arena sized from the fetched chunks. It is
// CombineByKey without a combiner in everything the ledger sees: the same
// lineage name and the same charges.
func GroupByKey[K comparable, V any](r *RDD[Pair[K, V]], parts int) *RDD[Pair[K, []V]] {
	d := r.base.driver
	if parts <= 0 {
		parts = d.DefaultParallelism()
	}
	part := NewHashPartitioner[K](parts)
	ks, gs := SizerFor[K](), SizerFor[[]V]()
	ps := PairSizer(ks, SizerFor[V]())
	shuffleID := d.NextShuffleID()
	dep := &ShuffleDep{
		P:         r.base,
		ShuffleID: shuffleID,
		WriteMap: func(ctx *executor.TaskContext, mapPart int) {
			writeChunks(ctx, shuffleID, mapPart, r.Compute(ctx, mapPart), part, ps)
		},
	}
	return newRDD(d, "combineByKey", parts, nil, []*ShuffleDep{dep}, func(ctx *executor.TaskContext, reduce int) []Pair[K, []V] {
		chunks := fetchChunks[K, V](ctx, shuffleID, reduce)
		n := chunkRecords(chunks)
		slots := newKeySlots[K](n)
		for _, ch := range chunks {
			slots.add(ch.Keys)
		}
		groups := carveGroups[V](slots.of, len(slots.keys))
		var probeBytes, keyBytes int64
		rec := 0
		for _, ch := range chunks {
			for j, v := range ch.Vals {
				i := slots.of[rec]
				groups[i] = append(groups[i], v)
				probeBytes += ps.Of(KV(ch.Keys[j], v))
				rec++
			}
		}
		var out []Pair[K, []V]
		if n > 0 {
			out = make([]Pair[K, []V], len(slots.keys))
			for i, k := range slots.keys {
				out[i] = KV(k, groups[i])
				keyBytes += ks.Of(k)
			}
		}
		ctx.CPUPerRecord(n, ctx.Cost.HashNS+ctx.Cost.ReduceNS)
		ctx.MemRand(memsim.Read, n, probeBytes)
		if len(out) > 0 {
			ctx.MemRand(memsim.Write, len(out), aggOutputBytes(out, keyBytes, gs))
		}
		return out
	})
}

// PartitionBy redistributes pairs by the given partitioner without
// aggregation; within a partition records arrive in map-partition order.
func PartitionBy[K comparable, V any](r *RDD[Pair[K, V]], p Partitioner[K]) *RDD[Pair[K, V]] {
	d := r.base.driver
	ps := PairSizer(SizerFor[K](), SizerFor[V]())
	shuffleID := d.NextShuffleID()
	dep := &ShuffleDep{
		P:         r.base,
		ShuffleID: shuffleID,
		WriteMap: func(ctx *executor.TaskContext, mapPart int) {
			writeChunks(ctx, shuffleID, mapPart, r.Compute(ctx, mapPart), p, ps)
		},
	}
	return newRDD(d, "partitionBy", p.NumPartitions(), nil, []*ShuffleDep{dep},
		func(ctx *executor.TaskContext, reduce int) []Pair[K, V] {
			// Rows materialize exactly once, into a page pre-sized from the
			// borrowed chunks' lengths — the single copy the reference-
			// passing shuffle still pays, at the consumer boundary.
			chunks := fetchChunks[K, V](ctx, shuffleID, reduce)
			n := chunkRecords(chunks)
			if n == 0 {
				return nil
			}
			out := make([]Pair[K, V], 0, n)
			for _, ch := range chunks {
				for j := range ch.Keys {
					out = append(out, KV(ch.Keys[j], ch.Vals[j]))
				}
			}
			return out
		})
}

// SortByKey range-partitions by a sampled key distribution and sorts each
// partition locally, like Spark: a sampling job runs eagerly to build the
// partitioner, then the shuffle and per-partition sorts execute lazily.
func SortByKey[K comparable, V any](r *RDD[Pair[K, V]], less func(a, b K) bool, parts int) *RDD[Pair[K, V]] {
	d := r.base.driver
	if parts <= 0 {
		parts = d.DefaultParallelism()
	}
	// Sampling job (Spark's rangeBounds computation) runs eagerly.
	sampled := Sample(r, 0.05)
	keys := Collect(Keys(sampled))
	rp := NewRangePartitioner(keys, parts, less)

	shuffled := PartitionBy(r, rp)
	ps := PairSizer(SizerFor[K](), SizerFor[V]())
	return MapPartitions(shuffled, func(ctx *executor.TaskContext, part int, in []Pair[K, V]) []Pair[K, V] {
		sortPartition(ctx, in, less, ps)
		return in
	})
}

// sortPartition sorts records in place and charges n log n comparison CPU
// plus one streaming read and one streaming write of the partition: range
// partitions are small enough to merge inside the cache hierarchy, so only
// the initial load and final store reach memory. This is exactly why the
// paper's sort benchmark is among the least tier-sensitive applications —
// it streams, it doesn't chase pointers.
func sortPartition[K comparable, V any](ctx *executor.TaskContext, in []Pair[K, V],
	less func(a, b K) bool, ps Sizer[Pair[K, V]]) {
	n := len(in)
	if n == 0 {
		return
	}
	stableSort(in, func(a, b *Pair[K, V]) bool { return less(a.Key, b.Key) })
	ctx.CPU(float64(n) * float64(log2(n)) * ctx.Cost.CompareNS)
	bytes := SizeSlice(in, ps)
	ctx.MemSeq(memsim.Read, bytes)
	ctx.MemSeq(memsim.Write, bytes)
}

func log2(n int) int {
	p := 0
	for n > 1 {
		n >>= 1
		p++
	}
	if p == 0 {
		p = 1
	}
	return p
}

// CoGroup shuffles both sides with a shared hash partitioner and groups
// values per key from each side.
func CoGroup[K comparable, V, W any](a *RDD[Pair[K, V]], b *RDD[Pair[K, W]], parts int) *RDD[Pair[K, CoGrouped[V, W]]] {
	d := a.base.driver
	if parts <= 0 {
		parts = d.DefaultParallelism()
	}
	p := NewHashPartitioner[K](parts)
	ks, vs, ws := SizerFor[K](), SizerFor[V](), SizerFor[W]()
	pvs := PairSizer(ks, vs)
	pws := PairSizer(ks, ws)
	leftID := d.NextShuffleID()
	rightID := d.NextShuffleID()

	depL := &ShuffleDep{
		P: a.base, ShuffleID: leftID,
		WriteMap: func(ctx *executor.TaskContext, mapPart int) {
			writeChunks(ctx, leftID, mapPart, a.Compute(ctx, mapPart), p, pvs)
		},
	}
	depR := &ShuffleDep{
		P: b.base, ShuffleID: rightID,
		WriteMap: func(ctx *executor.TaskContext, mapPart int) {
			writeChunks(ctx, rightID, mapPart, b.Compute(ctx, mapPart), p, pws)
		},
	}
	return newRDD(d, "cogroup", parts, nil, []*ShuffleDep{depL, depR},
		func(ctx *executor.TaskContext, reduce int) []Pair[K, CoGrouped[V, W]] {
			// Both sides' groups are carved out of one arena each, sized
			// from the fetched chunks; keys keep first-seen order, left
			// side first.
			left := fetchChunks[K, V](ctx, leftID, reduce)
			right := fetchChunks[K, W](ctx, rightID, reduce)
			nLeft, nRight := chunkRecords(left), chunkRecords(right)
			slots := newKeySlots[K](nLeft + nRight)
			for _, ch := range left {
				slots.add(ch.Keys)
			}
			for _, ch := range right {
				slots.add(ch.Keys)
			}
			lefts := carveGroups[V](slots.of[:nLeft], len(slots.keys))
			rights := carveGroups[W](slots.of[nLeft:], len(slots.keys))
			// keyBytes and cellBytes accumulate the output footprint (48
			// bytes per cogroup cell plus each grouped element), replacing
			// a full SizeOfSlice re-walk of out.
			var keyBytes, cellBytes, probeBytes int64
			rec := 0
			for _, ch := range left {
				for j, v := range ch.Vals {
					i := slots.of[rec]
					lefts[i] = append(lefts[i], v)
					cellBytes += vs.Of(v)
					probeBytes += pvs.Of(KV(ch.Keys[j], v))
					rec++
				}
			}
			for _, ch := range right {
				for j, w := range ch.Vals {
					i := slots.of[rec]
					rights[i] = append(rights[i], w)
					cellBytes += ws.Of(w)
					probeBytes += pws.Of(KV(ch.Keys[j], w))
					rec++
				}
			}
			var out []Pair[K, CoGrouped[V, W]]
			if rec > 0 {
				out = make([]Pair[K, CoGrouped[V, W]], len(slots.keys))
				for i, k := range slots.keys {
					out[i] = KV(k, CoGrouped[V, W]{Left: lefts[i], Right: rights[i]})
					keyBytes += ks.Of(k)
					cellBytes += 48
				}
			}
			ctx.CPUPerRecord(rec, ctx.Cost.HashNS+ctx.Cost.ReduceNS)
			ctx.MemRand(memsim.Read, rec, probeBytes)
			if len(out) > 0 {
				ctx.MemRand(memsim.Write, len(out), 24+keyBytes+cellBytes)
			}
			return out
		})
}

// Join inner-joins two pair datasets on their keys.
func Join[K comparable, V, W any](a *RDD[Pair[K, V]], b *RDD[Pair[K, W]], parts int) *RDD[Pair[K, Two[V, W]]] {
	cg := CoGroup(a, b, parts)
	return FlatMap(cg, func(p Pair[K, CoGrouped[V, W]]) []Pair[K, Two[V, W]] {
		if len(p.Val.Left) == 0 || len(p.Val.Right) == 0 {
			return nil
		}
		out := make([]Pair[K, Two[V, W]], 0, len(p.Val.Left)*len(p.Val.Right))
		for _, v := range p.Val.Left {
			for _, w := range p.Val.Right {
				out = append(out, KV(p.Key, Two[V, W]{v, w}))
			}
		}
		return out
	})
}

// Repartition redistributes records round-robin across parts partitions —
// Spark's repartition(), the core of the HiBench repartition micro
// benchmark: a pure shuffle with no aggregation.
func Repartition[T any](r *RDD[T], parts int) *RDD[T] {
	if parts <= 0 {
		parts = r.base.driver.DefaultParallelism()
	}
	srcParts := r.base.NumParts
	keyed := MapPartitions(r, func(ctx *executor.TaskContext, part int, in []T) []Pair[int, T] {
		out := make([]Pair[int, T], len(in))
		for i, v := range in {
			out[i] = KV(part+i*srcParts, v) // deterministic round-robin key
		}
		return out
	})
	shuffled := PartitionBy(keyed, NewHashPartitioner[int](parts))
	return Values(shuffled)
}
