package rdd

import (
	"cmp"

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

// localCombine aggregates a record batch in first-seen key order through
// a keyIndex, charging hash-table traffic (random probes and inserts).
func localCombine[K comparable, V, C any](ctx *executor.TaskContext, recs []Pair[K, V],
	create func(V) C, merge func(C, V) C, hash Hasher[K],
	ps Sizer[Pair[K, V]], ks Sizer[K], cs Sizer[C]) []Pair[K, C] {
	index := newKeyIndex[K, C](hash, len(recs))
	out := make([]Pair[K, C], 0, len(recs)/2+1)
	var probeBytes, keyBytes int64
	for _, rec := range recs {
		probeBytes += ps.Of(rec)
		if i, ok := index.find(out, rec.Key); ok {
			out[i].Val = merge(out[i].Val, rec.Val)
		} else {
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
			combined := localCombine(ctx, r.Compute(ctx, mapPart), create, mergeValue, part.hash, ps, ks, cs)
			writeChunks(ctx, shuffleID, mapPart, combined, part, ks, cs)
		},
	}
	return newRDD(d, "combineByKey", parts, nil, []*ShuffleDep{dep}, func(ctx *executor.TaskContext, reduce int) []Pair[K, C] {
		return mergeChunks[K, C, C](ctx, shuffleID, reduce,
			func(c C) C { return c }, mergeCombiners, part.hash, pcs, ks, cs)
	})
}

// mergeChunks drains one reduce partition's borrowed chunks into a
// first-seen-ordered aggregation through a keyIndex, reading the columns
// in place.
func mergeChunks[K comparable, V, C any](ctx *executor.TaskContext, shuffleID, reduce int,
	create func(V) C, merge func(C, V) C, hash Hasher[K],
	ps Sizer[Pair[K, V]], ks Sizer[K], cs Sizer[C]) []Pair[K, C] {
	chunks := fetchChunks[K, V](ctx, shuffleID, reduce)
	n := chunkRecords(chunks)
	index := newKeyIndex[K, C](hash, n)
	var out []Pair[K, C]
	var probeBytes, keyBytes int64
	for _, ch := range chunks {
		for j := range ch.Keys {
			k, v := ch.Keys[j], ch.Vals[j]
			probeBytes += ps.Of(KV(k, v))
			if i, ok := index.find(out, k); ok {
				out[i].Val = merge(out[i].Val, v)
			} else {
				keyBytes += ks.Of(k)
				out = append(out, KV(k, create(v)))
			}
		}
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
	ks, vs, gs := SizerFor[K](), SizerFor[V](), SizerFor[[]V]()
	ps := PairSizer(ks, vs)
	shuffleID := d.NextShuffleID()
	dep := &ShuffleDep{
		P:         r.base,
		ShuffleID: shuffleID,
		WriteMap: func(ctx *executor.TaskContext, mapPart int) {
			writeChunks(ctx, shuffleID, mapPart, r.Compute(ctx, mapPart), part, ks, vs)
		},
	}
	return newRDD(d, "combineByKey", parts, nil, []*ShuffleDep{dep}, func(ctx *executor.TaskContext, reduce int) []Pair[K, []V] {
		chunks := fetchChunks[K, V](ctx, shuffleID, reduce)
		n := chunkRecords(chunks)
		slots := newKeySlots[K, []V](part.hash, n)
		for _, ch := range chunks {
			slots.add(ch.Keys)
		}
		out := slots.out
		groups := carveGroups[V](slots.of, len(out))
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
		for i := range out {
			out[i].Val = groups[i]
			keyBytes += ks.Of(out[i].Key)
		}
		ctx.CPUPerRecord(n, ctx.Cost.HashNS+ctx.Cost.ReduceNS)
		ctx.MemRand(memsim.Read, n, probeBytes)
		if len(out) > 0 {
			ctx.MemRand(memsim.Write, len(out), aggOutputBytes(out, keyBytes, gs))
		}
		return out
	})
}

// shuffleBy allocates a shuffle that write fills from parent's
// partitions, and the "partitionBy" dataset it feeds. It returns that
// dataset's lineage node and the shuffle id its reducers fetch: each
// caller reads the chunks straight into its own output page.
func shuffleBy(parent *Base, parts int, write func(ctx *executor.TaskContext, shuffleID, mapPart int)) (*Base, int) {
	d := parent.driver
	shuffleID := d.NextShuffleID()
	dep := &ShuffleDep{
		P:         parent,
		ShuffleID: shuffleID,
		WriteMap: func(ctx *executor.TaskContext, mapPart int) {
			write(ctx, shuffleID, mapPart)
		},
	}
	return newBase(d, "partitionBy", parts, nil, []*ShuffleDep{dep}), shuffleID
}

// sampleFrac is the share of records a sort's sampling job draws keys
// from.
const sampleFrac = 0.05

// SortByKey range-partitions by a sampled key distribution and sorts each
// partition locally, like Spark: a sampling job runs eagerly to build the
// partitioner, then the shuffle and per-partition sorts execute lazily.
func SortByKey[K comparable, V any](r *RDD[Pair[K, V]], less func(a, b K) bool, parts int) *RDD[Pair[K, V]] {
	return sortPairs(r, parts, func(sample []K, parts int) RangePartitioner[K] {
		return NewRangePartitioner(sample, parts, less)
	})
}

// SortByKeyOrdered is SortByKey in the keys' natural order (cmp.Less),
// with identical output. For string keys it orders by 8-byte key prefix
// first, like Spark's Tungsten sorter: partitions radix-sort a (prefix,
// position) index and range partitioning compares prefixes, both falling
// back to the full key only on a prefix tie.
func SortByKeyOrdered[K cmp.Ordered, V any](r *RDD[Pair[K, V]], parts int) *RDD[Pair[K, V]] {
	return sortPairs(r, parts, newOrderedRangePartitioner[K])
}

// sortPairs is sortBy over a pair dataset, computed afresh by each job.
func sortPairs[K comparable, V any](r *RDD[Pair[K, V]], parts int,
	partitioner func(sample []K, parts int) RangePartitioner[K]) *RDD[Pair[K, V]] {
	return sortBy(r.base, parts, r.Compute, r.Compute,
		func(p Pair[K, V]) K { return p.Key }, func(p Pair[K, V]) V { return p.Val }, partitioner)
}

// SortBy sorts records by key(record) in the keys' natural order: it is
// SortByKeyOrdered(KeyBy(r, key), parts) in output, lineage and every
// charge, without building the key-pair pages. On a generated source
// (GenerateBatch, Generate) each partition is generated once for both of
// the sort's jobs (see parkedSource); any other input falls back to the
// composition.
func SortBy[T any, K cmp.Ordered](r *RDD[T], key func(T) K, parts int) *RDD[Pair[K, T]] {
	if r.fill == nil {
		return SortByKeyOrdered(KeyBy(r, key), parts)
	}
	// KeyBy's dataset stands in the lineage; its per-record CPU is charged
	// where KeyBy would charge it, right after the source's.
	keyed := newBase(r.base.driver, "map", r.base.NumParts, r.base, nil)
	park, take := parkedSource(r)
	keyBy := func(recs func(ctx *executor.TaskContext, part int) []T) func(ctx *executor.TaskContext, part int) []T {
		return func(ctx *executor.TaskContext, part int) []T {
			in := recs(ctx, part)
			ctx.CPUPerRecord(len(in), ctx.Cost.MapNS)
			return in
		}
	}
	return sortBy(keyed, parts, keyBy(park), keyBy(take), key, func(t T) T { return t }, newOrderedRangePartitioner[K])
}

// sortBy is every sort's body. parent is the dataset whose records are
// sorted; sample and shuffle compute its partitions for the sampling job
// and for the map stage. key and val project a record onto the output
// pair. partitioner builds the range partitioner from the collected key
// sample, which it may reorder, and the partitioner carries the key order
// the per-partition sorts use.
//
// It issues the charges, and allocates the dataset and shuffle ids, of the
// composition Spark's sortByKey is: a Collect of the keys of a Sample of
// parent for the range bounds, then PartitionBy and a per-partition sort in
// MapPartitions. But the sampling task draws keys straight from the
// records, the map task chunks them by key without a pair page, and the
// reduce task sorts an index over the fetched chunks and gathers each
// record once into its output page.
func sortBy[R any, K comparable, V any](parent *Base, parts int,
	sample, shuffle func(ctx *executor.TaskContext, part int) []R,
	key func(R) K, val func(R) V,
	partitioner func(sample []K, parts int) RangePartitioner[K]) *RDD[Pair[K, V]] {
	d := parent.driver
	if parts <= 0 {
		parts = d.DefaultParallelism()
	}
	// Sampling job (Spark's rangeBounds computation) runs eagerly.
	sampled := newBase(d, "sample", parent.NumParts, parent, nil)
	keys := newRDD(d, "map", parent.NumParts, sampled, nil, func(ctx *executor.TaskContext, part int) []K {
		in := sample(ctx, part)
		var out []K
		for i := range in {
			if ctx.Rand.Float64() < sampleFrac {
				out = append(out, key(in[i]))
			}
		}
		ctx.CPUPerRecord(len(in), ctx.Cost.FilterNS)
		ctx.CPUPerRecord(len(out), ctx.Cost.MapNS)
		return out
	})
	rp := partitioner(Collect(keys), parts)

	ks, vs := SizerFor[K](), SizerFor[V]()
	shuffled, shuffleID := shuffleBy(parent, rp.NumPartitions(), func(ctx *executor.TaskContext, shuffleID, mapPart int) {
		in := shuffle(ctx, mapPart)
		chunks, bucketBytes := chunkify(ctx, len(in), rp.NumPartitions(),
			func(targets []int32) {
				for i := range in {
					targets[i] = int32(rp.PartitionFor(key(in[i])))
				}
			},
			func(targets []int32, next []int, keys []K, vals []V) {
				for i, b := range targets {
					j := next[b]
					next[b]++
					keys[j], vals[j] = key(in[i]), val(in[i])
				}
			}, ks, vs)
		putChunks(ctx, shuffleID, mapPart, chunks, bucketBytes)
	})
	ps := PairSizer(ks, vs)
	return newRDD(d, "mapPartitions", shuffled.NumParts, shuffled, nil, func(ctx *executor.TaskContext, part int) []Pair[K, V] {
		chunks := fetchChunks[K, V](ctx, shuffleID, part)
		ctx.CPUPerRecord(chunkRecords(chunks), ctx.Cost.MapNS)
		return sortPartition(ctx, chunks, rp.Less, rp.prefix, ps)
	})
}

// sortPartition gathers a reduce partition's chunks into one page sorted
// stably by key (chunks in fetch order, rows in chunk order, are the
// input order), and charges n log n comparison CPU plus one streaming
// read and one streaming write of the partition: range partitions are
// small enough to merge inside the cache hierarchy, so only the initial
// load and final store reach memory. This is exactly why the paper's sort
// benchmark is among the least tier-sensitive applications — it streams,
// it doesn't chase pointers. The charge is a formula and a stable order
// is unique, so the host algorithm cannot show in the virtual ledger:
// with a key prefix it is prefixSort, otherwise (and for partitions of at
// most sortRun records, which insertion-sort without an index) a gather
// in input order and the generic stableSort.
func sortPartition[K comparable, V any](ctx *executor.TaskContext, chunks []Chunk[K, V],
	less func(a, b K) bool, prefix func(K) uint64, ps Sizer[Pair[K, V]]) []Pair[K, V] {
	n := chunkRecords(chunks)
	if n == 0 {
		return nil
	}
	out := make([]Pair[K, V], n)
	if prefix != nil && n > sortRun {
		prefixSort(out, chunks, less, prefix)
	} else {
		i := 0
		for _, ch := range chunks {
			for j := range ch.Keys {
				out[i] = KV(ch.Keys[j], ch.Vals[j])
				i++
			}
		}
		stableSort(out, func(a, b *Pair[K, V]) bool { return less(a.Key, b.Key) })
	}
	ctx.CPU(float64(n) * float64(log2(n)) * ctx.Cost.CompareNS)
	bytes := SizeSlice(out, ps)
	ctx.MemSeq(memsim.Read, bytes)
	ctx.MemSeq(memsim.Write, bytes)
	return out
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
			writeChunks(ctx, leftID, mapPart, a.Compute(ctx, mapPart), p, ks, vs)
		},
	}
	depR := &ShuffleDep{
		P: b.base, ShuffleID: rightID,
		WriteMap: func(ctx *executor.TaskContext, mapPart int) {
			writeChunks(ctx, rightID, mapPart, b.Compute(ctx, mapPart), p, ks, ws)
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
			slots := newKeySlots[K, CoGrouped[V, W]](p.hash, nLeft+nRight)
			for _, ch := range left {
				slots.add(ch.Keys)
			}
			for _, ch := range right {
				slots.add(ch.Keys)
			}
			out := slots.out
			lefts := carveGroups[V](slots.of[:nLeft], len(out))
			rights := carveGroups[W](slots.of[nLeft:], len(out))
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
			for i := range out {
				out[i].Val = CoGrouped[V, W]{Left: lefts[i], Right: rights[i]}
				keyBytes += ks.Of(out[i].Key)
				cellBytes += 48
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
	return FlatMap(cg, func(dst []Pair[K, Two[V, W]], p Pair[K, CoGrouped[V, W]]) []Pair[K, Two[V, W]] {
		for _, v := range p.Val.Left {
			for _, w := range p.Val.Right {
				dst = append(dst, KV(p.Key, Two[V, W]{v, w}))
			}
		}
		return dst
	})
}

// Repartition redistributes records round-robin across parts partitions —
// Spark's repartition(), the core of the HiBench repartition micro
// benchmark: a pure shuffle with no aggregation. It is the composition
// MapPartitions (key record i of partition part by part+i*srcParts), a
// hash PartitionBy, and a Map back to the values, in lineage and every
// charge; but the map task chunks the records by their index key without
// a pair page, and the reduce task copies the chunks' value columns
// straight into its output page.
func Repartition[T any](r *RDD[T], parts int) *RDD[T] {
	d := r.base.driver
	if parts <= 0 {
		parts = d.DefaultParallelism()
	}
	srcParts := r.base.NumParts
	keyed := newBase(d, "mapPartitions", srcParts, r.base, nil)
	p := NewHashPartitioner[int](parts)
	ks, vs := SizerFor[int](), SizerFor[T]()
	shuffled, shuffleID := shuffleBy(keyed, parts, func(ctx *executor.TaskContext, shuffleID, mapPart int) {
		in := r.Compute(ctx, mapPart)
		ctx.CPUPerRecord(len(in), ctx.Cost.MapNS)
		chunks, bucketBytes := chunkify(ctx, len(in), parts,
			func(targets []int32) {
				for i := range in {
					targets[i] = int32(p.PartitionFor(mapPart + i*srcParts)) // deterministic round-robin key
				}
			},
			func(targets []int32, next []int, keys []int, vals []T) {
				for i, b := range targets {
					j := next[b]
					next[b]++
					keys[j], vals[j] = mapPart+i*srcParts, in[i]
				}
			}, ks, vs)
		putChunks(ctx, shuffleID, mapPart, chunks, bucketBytes)
	})
	return newRDD(d, "map", parts, shuffled, nil, func(ctx *executor.TaskContext, reduce int) []T {
		chunks := fetchChunks[int, T](ctx, shuffleID, reduce)
		out := make([]T, 0, chunkRecords(chunks))
		for _, ch := range chunks {
			out = append(out, ch.Vals...)
		}
		ctx.CPUPerRecord(len(out), ctx.Cost.MapNS)
		return out
	})
}
