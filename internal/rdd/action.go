package rdd

import (
	"fmt"

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

// Reduce combines all records with f; panics on an empty dataset (like
// Spark's reduce).
func Reduce[T any](r *RDD[T], f func(T, T) T) T {
	parts := r.base.driver.RunJob(r.base, func(ctx *executor.TaskContext, part int) any {
		in := r.Compute(ctx, part)
		if len(in) == 0 {
			return nil
		}
		acc := in[0]
		for _, v := range in[1:] {
			acc = f(acc, v)
		}
		ctx.CPUPerRecord(len(in), ctx.Cost.ReduceNS)
		return acc
	})
	var acc T
	seen := false
	for _, p := range parts {
		if p == nil {
			continue
		}
		v := p.(T)
		if !seen {
			acc, seen = v, true
		} else {
			acc = f(acc, v)
		}
	}
	if !seen {
		panic(fmt.Sprintf("rdd: reduce on empty %s", r.base))
	}
	return acc
}

// Fold combines all records starting from zero in every partition.
func Fold[T any](r *RDD[T], zero T, f func(T, T) T) T {
	parts := r.base.driver.RunJob(r.base, func(ctx *executor.TaskContext, part int) any {
		acc := zero
		in := r.Compute(ctx, part)
		for _, v := range in {
			acc = f(acc, v)
		}
		ctx.CPUPerRecord(len(in), ctx.Cost.ReduceNS)
		return acc
	})
	acc := zero
	for _, p := range parts {
		acc = f(acc, p.(T))
	}
	return acc
}

// Take returns up to n records in partition order. (The job still computes
// every partition — acceptable at simulation scale, and noted as a
// divergence from Spark's incremental take.)
func Take[T any](r *RDD[T], n int) []T {
	all := Collect(r)
	if n > len(all) {
		n = len(all)
	}
	if n < 0 {
		n = 0
	}
	return all[:n]
}

// First returns the first record; panics on an empty dataset.
func First[T any](r *RDD[T]) T {
	out := Take(r, 1)
	if len(out) == 0 {
		panic(fmt.Sprintf("rdd: first on empty %s", r.base))
	}
	return out[0]
}

// CountByKey counts records per key on the driver.
func CountByKey[K comparable, V any](r *RDD[Pair[K, V]]) map[K]int {
	counted := ReduceByKey(Map(r, func(p Pair[K, V]) Pair[K, int] {
		return KV(p.Key, 1)
	}), func(a, b int) int { return a + b }, 0)
	out := make(map[K]int)
	for _, p := range Collect(counted) {
		out[p.Key] = p.Val
	}
	return out
}

// ForeachPartition runs f over every partition for its side effects on the
// cost profile (e.g. simulating an output write) and returns nothing.
func ForeachPartition[T any](r *RDD[T], f func(ctx *executor.TaskContext, part int, in []T)) {
	r.base.driver.RunJob(r.base, func(ctx *executor.TaskContext, part int) any {
		f(ctx, part, r.Compute(ctx, part))
		return nil
	})
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
