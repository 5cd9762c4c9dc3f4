package rdd

import (
	"repro/internal/executor"
	"repro/internal/memsim"
)

// Collect runs a job and returns all records in partition order. Each task
// charges serialization of its result back to the driver.
func Collect[T any](r *RDD[T]) []T {
	parts := r.base.driver.RunJob(r.base, func(ctx *executor.TaskContext, part int) any {
		out := r.Compute(ctx, part)
		bytes := SizeOfSlice(out)
		ctx.CPU(float64(bytes) * ctx.Cost.SerDePerB)
		ctx.MemSeq(memsim.Read, bytes)
		return out
	})
	n := 0
	for _, p := range parts {
		n += len(p.([]T))
	}
	if n == 0 {
		return nil
	}
	all := make([]T, 0, n)
	for _, p := range parts {
		all = append(all, p.([]T)...)
	}
	return all
}

// Count runs a job returning the number of records.
func Count[T any](r *RDD[T]) int {
	parts := r.base.driver.RunJob(r.base, func(ctx *executor.TaskContext, part int) any {
		return len(r.Compute(ctx, part))
	})
	total := 0
	for _, p := range parts {
		total += p.(int)
	}
	return total
}

// SaveAsSink simulates writing the dataset out to HDFS: every task reads
// its partition from the bound memory tier, serializes it and streams it
// to disk (a tier-independent transfer). Returns total bytes written.
func SaveAsSink[T any](r *RDD[T]) int64 {
	parts := r.base.driver.RunJob(r.base, func(ctx *executor.TaskContext, part int) any {
		out := r.Compute(ctx, part)
		bytes := SizeOfSlice(out)
		ctx.CPU(float64(bytes) * ctx.Cost.SerDePerB)
		ctx.MemSeq(memsim.Read, bytes)
		ctx.Disk(bytes)
		return bytes
	})
	var total int64
	for _, p := range parts {
		total += p.(int64)
	}
	return total
}
