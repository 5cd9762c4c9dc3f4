package rdd

import (
	"fmt"

	"repro/internal/executor"
)

// Map applies f to every record. Pipelined: charges per-record CPU only.
func Map[T, U any](r *RDD[T], f func(T) U) *RDD[U] {
	return newRDD(r.base.driver, "map", r.base.NumParts, r.base, nil,
		func(ctx *executor.TaskContext, part int) []U {
			in := r.Compute(ctx, part)
			out := make([]U, len(in))
			for i, v := range in {
				out[i] = f(v)
			}
			ctx.CPUPerRecord(len(in), ctx.Cost.MapNS)
			return out
		})
}

// Filter keeps records satisfying pred.
func Filter[T any](r *RDD[T], pred func(T) bool) *RDD[T] {
	return newRDD(r.base.driver, "filter", r.base.NumParts, r.base, nil,
		func(ctx *executor.TaskContext, part int) []T {
			in := r.Compute(ctx, part)
			out := in[:0:0]
			for _, v := range in {
				if pred(v) {
					out = append(out, v)
				}
			}
			ctx.CPUPerRecord(len(in), ctx.Cost.FilterNS)
			return out
		})
}

// FlatMap maps each record to zero or more records.
func FlatMap[T, U any](r *RDD[T], f func(T) []U) *RDD[U] {
	return newRDD(r.base.driver, "flatMap", r.base.NumParts, r.base, nil,
		func(ctx *executor.TaskContext, part int) []U {
			in := r.Compute(ctx, part)
			var out []U
			for _, v := range in {
				out = append(out, f(v)...)
			}
			ctx.CPUPerRecord(len(in), ctx.Cost.MapNS)
			ctx.CPUPerRecord(len(out), ctx.Cost.MapNS/2)
			return out
		})
}

// MapPartitions transforms a whole partition at once. f must not retain the
// input slice. CPU is charged per input record; f may charge extra via ctx.
func MapPartitions[T, U any](r *RDD[T], f func(ctx *executor.TaskContext, part int, in []T) []U) *RDD[U] {
	return newRDD(r.base.driver, "mapPartitions", r.base.NumParts, r.base, nil,
		func(ctx *executor.TaskContext, part int) []U {
			in := r.Compute(ctx, part)
			ctx.CPUPerRecord(len(in), ctx.Cost.MapNS)
			return f(ctx, part, in)
		})
}

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

// KeyBy turns records into pairs keyed by f.
func KeyBy[T any, K comparable](r *RDD[T], f func(T) K) *RDD[Pair[K, T]] {
	return Map(r, func(v T) Pair[K, T] { return KV(f(v), v) })
}
