package rdd

import "repro/internal/executor"

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

// FlatMap maps each record to zero or more records: f appends v's records
// to dst and returns the extended slice, so the partition's output grows
// in one page, which starts with room for one record per input record,
// instead of a slice per record.
func FlatMap[T, U any](r *RDD[T], f func(dst []U, v T) []U) *RDD[U] {
	return newRDD(r.base.driver, "flatMap", r.base.NumParts, r.base, nil,
		func(ctx *executor.TaskContext, part int) []U {
			in := r.Compute(ctx, part)
			out := make([]U, 0, len(in))
			for _, v := range in {
				out = f(out, v)
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
