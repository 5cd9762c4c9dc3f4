package rdd

import (
	"cmp"
	"fmt"

	"repro/internal/executor"
	"repro/internal/memsim"
)

// This file keeps sort and repartition as the compositions of plain
// operators they were before their bodies were fused, and SortBy as the
// SortByKeyOrdered(KeyBy(r, key)) it stands for, as the oracles the fused
// bodies must equal in output, lineage and every charge: a sampling
// job Collect(Map(Sample(r))) over the keys, a PartitionBy whose reducers
// copy the chunks into a pair page, and a MapPartitions that sorts that
// page (or a Map back to the values). Every record is generated, keyed and
// copied as many times as the composition says.

// Sample keeps each record with probability frac, deterministically per
// (application seed, partition).
func Sample[T any](r *RDD[T], frac float64) *RDD[T] {
	if frac < 0 || frac > 1 {
		panic(fmt.Sprintf("rdd: sample fraction %v out of [0,1]", frac))
	}
	return newRDD(r.base.driver, "sample", r.base.NumParts, r.base, nil,
		func(ctx *executor.TaskContext, part int) []T {
			in := r.Compute(ctx, part)
			var out []T
			for _, v := range in {
				if ctx.Rand.Float64() < frac {
					out = append(out, v)
				}
			}
			ctx.CPUPerRecord(len(in), ctx.Cost.FilterNS)
			return out
		})
}

// PartitionBy redistributes pairs by the given partitioner without
// aggregation; within a partition records arrive in map-partition order.
func PartitionBy[K comparable, V any](r *RDD[Pair[K, V]], p Partitioner[K]) *RDD[Pair[K, V]] {
	d := r.base.driver
	ks, vs := SizerFor[K](), SizerFor[V]()
	shuffleID := d.NextShuffleID()
	dep := &ShuffleDep{
		P:         r.base,
		ShuffleID: shuffleID,
		WriteMap: func(ctx *executor.TaskContext, mapPart int) {
			writeChunks(ctx, shuffleID, mapPart, r.Compute(ctx, mapPart), p, ks, vs)
		},
	}
	return newRDD(d, "partitionBy", p.NumPartitions(), nil, []*ShuffleDep{dep},
		func(ctx *executor.TaskContext, reduce int) []Pair[K, V] {
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

// KeyBy turns records into pairs keyed by f.
func KeyBy[T any, K comparable](r *RDD[T], f func(T) K) *RDD[Pair[K, T]] {
	return Map(r, func(v T) Pair[K, T] { return KV(f(v), v) })
}

// SortByKeyOrdered is SortByKey in the keys' natural order (cmp.Less),
// on the fused body with the prefix index: SortBy's output and ledger
// over an input KeyBy has already paired.
func SortByKeyOrdered[K cmp.Ordered, V any](r *RDD[Pair[K, V]], parts int) *RDD[Pair[K, V]] {
	return sortPairs(r, parts, newOrderedRangePartitioner[K])
}

// UnfusedSortByKey is SortByKey as the composition.
func UnfusedSortByKey[K comparable, V any](r *RDD[Pair[K, V]], less func(a, b K) bool, parts int) *RDD[Pair[K, V]] {
	return unfusedSortByKey(r, parts, func(sample []K, parts int) RangePartitioner[K] {
		return NewRangePartitioner(sample, parts, less)
	})
}

// UnfusedSortBy is SortBy as the composition
// SortByKeyOrdered(KeyBy(r, key), parts).
func UnfusedSortBy[T any, K cmp.Ordered](r *RDD[T], key func(T) K, parts int) *RDD[Pair[K, T]] {
	return unfusedSortByKey(KeyBy(r, key), parts, newOrderedRangePartitioner[K])
}

func unfusedSortByKey[K comparable, V any](r *RDD[Pair[K, V]], parts int,
	partitioner func(sample []K, parts int) RangePartitioner[K]) *RDD[Pair[K, V]] {
	d := r.base.driver
	if parts <= 0 {
		parts = d.DefaultParallelism()
	}
	sampled := Sample(r, sampleFrac)
	rp := partitioner(Collect(Map(sampled, func(p Pair[K, V]) K { return p.Key })), parts)
	shuffled := PartitionBy(r, rp)
	ps := PairSizer(SizerFor[K](), SizerFor[V]())
	return MapPartitions(shuffled, func(ctx *executor.TaskContext, part int, in []Pair[K, V]) []Pair[K, V] {
		n := len(in)
		if n == 0 {
			return in
		}
		stableSort(in, func(a, b *Pair[K, V]) bool { return rp.Less(a.Key, b.Key) })
		ctx.CPU(float64(n) * float64(log2(n)) * ctx.Cost.CompareNS)
		bytes := SizeSlice(in, ps)
		ctx.MemSeq(memsim.Read, bytes)
		ctx.MemSeq(memsim.Write, bytes)
		return in
	})
}

// UnfusedRepartition is Repartition as the composition.
func UnfusedRepartition[T any](r *RDD[T], parts int) *RDD[T] {
	if parts <= 0 {
		parts = r.base.driver.DefaultParallelism()
	}
	srcParts := r.base.NumParts
	keyed := MapPartitions(r, func(ctx *executor.TaskContext, part int, in []T) []Pair[int, T] {
		out := make([]Pair[int, T], len(in))
		for i, v := range in {
			out[i] = KV(part+i*srcParts, v)
		}
		return out
	})
	shuffled := PartitionBy(keyed, NewHashPartitioner[int](parts))
	return Map(shuffled, func(p Pair[int, T]) T { return p.Val })
}
