package rdd

import (
	"fmt"

	"repro/internal/executor"
)

// Coalesce merges the dataset into fewer partitions without a shuffle by
// concatenating ranges of parent partitions (Spark's coalesce with
// shuffle=false). parts must not exceed the current partition count.
func Coalesce[T any](r *RDD[T], parts int) *RDD[T] {
	src := r.base.NumParts
	if parts <= 0 || parts > src {
		panic(fmt.Sprintf("rdd: coalesce %d partitions into %d", src, parts))
	}
	if parts == src {
		return r
	}
	return newRDD(r.base.driver, "coalesce", parts, []Dep{NarrowDep{r.base}},
		func(ctx *executor.TaskContext, part int) []T {
			lo := part * src / parts
			hi := (part + 1) * src / parts
			var out []T
			for p := lo; p < hi; p++ {
				out = append(out, r.Compute(ctx, p)...)
			}
			return out
		})
}

// Glom turns each partition into a single slice record, like Spark's glom.
func Glom[T any](r *RDD[T]) *RDD[[]T] {
	return newRDD(r.base.driver, "glom", r.base.NumParts, []Dep{NarrowDep{r.base}},
		func(ctx *executor.TaskContext, part int) [][]T {
			return [][]T{r.Compute(ctx, part)}
		})
}

// Intersection returns the distinct records present in both datasets,
// via a cogroup on the record value.
func Intersection[T comparable](a, b *RDD[T], parts int) *RDD[T] {
	ka := Map(a, func(v T) Pair[T, bool] { return KV(v, true) })
	kb := Map(b, func(v T) Pair[T, bool] { return KV(v, true) })
	cg := CoGroup(ka, kb, parts)
	both := Filter(cg, func(p Pair[T, CoGrouped[bool, bool]]) bool {
		return len(p.Val.Left) > 0 && len(p.Val.Right) > 0
	})
	return Keys(both)
}

// SubtractByKey returns the pairs of a whose keys do not appear in b,
// like Spark's subtractByKey.
func SubtractByKey[K comparable, V, W any](a *RDD[Pair[K, V]], b *RDD[Pair[K, W]], parts int) *RDD[Pair[K, V]] {
	cg := CoGroup(a, b, parts)
	return FlatMap(cg, func(p Pair[K, CoGrouped[V, W]]) []Pair[K, V] {
		if len(p.Val.Right) > 0 || len(p.Val.Left) == 0 {
			return nil
		}
		out := make([]Pair[K, V], len(p.Val.Left))
		for i, v := range p.Val.Left {
			out[i] = KV(p.Key, v)
		}
		return out
	})
}

// TakeOrdered returns the n smallest records under less, computing a
// per-partition top-n first (like Spark) so only n records per partition
// reach the driver.
func TakeOrdered[T any](r *RDD[T], n int, less func(a, b T) bool) []T {
	if n <= 0 {
		return nil
	}
	parts := r.base.driver.RunJob(r.base, func(ctx *executor.TaskContext, part int) any {
		in := r.Compute(ctx, part)
		local := append([]T(nil), in...)
		stableSort(local, byValue(less))
		ctx.CPU(float64(len(in)) * float64(log2(max(len(in), 2))) * ctx.Cost.CompareNS)
		if len(local) > n {
			local = local[:n]
		}
		return local
	})
	var all []T
	for _, p := range parts {
		all = append(all, p.([]T)...)
	}
	stableSort(all, byValue(less))
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// Top returns the n largest records under less.
func Top[T any](r *RDD[T], n int, less func(a, b T) bool) []T {
	return TakeOrdered(r, n, func(a, b T) bool { return less(b, a) })
}
