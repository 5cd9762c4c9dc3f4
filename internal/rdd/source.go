package rdd

import (
	"math/rand"

	"repro/internal/executor"
	"repro/internal/memsim"
	"repro/internal/rng"
)

// Parallelize distributes an in-driver slice across parts partitions. Each
// task charges a sequential read of its slice (the driver ships it to the
// executor's bound memory).
func Parallelize[T any](d Driver, name string, data []T, parts int) *RDD[T] {
	if parts <= 0 {
		parts = d.DefaultParallelism()
	}
	if parts > len(data) && len(data) > 0 {
		parts = len(data)
	}
	if parts <= 0 {
		parts = 1
	}
	n := len(data)
	return newRDD(d, name, parts, nil, nil, func(ctx *executor.TaskContext, part int) []T {
		lo := part * n / parts
		hi := (part + 1) * n / parts
		slice := data[lo:hi]
		bytes := SizeOfSlice(slice)
		ctx.MemSeq(memsim.Read, bytes)
		ctx.CPU(float64(bytes) * ctx.Cost.SerDePerB)
		return slice
	})
}

// Generate produces n synthetic records across parts partitions, the way
// HiBench's data generators feed each benchmark. Generation charges
// per-record CPU plus a sequential write of the produced bytes (the data
// lands in the executor's bound memory, like an HDFS read into the heap).
// gen receives a per-partition deterministic PRNG and the global record
// index.
func Generate[T any](d Driver, name string, n, parts int, gen func(r *rand.Rand, i int) T) *RDD[T] {
	return GenerateBatch(d, name, n, parts, func(r *rand.Rand, lo, hi int, out []T) {
		for i := lo; i < hi; i++ {
			out[i-lo] = gen(r, i)
		}
	})
}

// GenerateBatch is Generate for batch-filling generators: fill populates
// the partition's pre-sized record buffer in one call (records [lo, hi)
// of the dataset), letting generators amortize per-record allocations —
// e.g. one shared key arena per partition instead of one string per
// record. Generate is GenerateBatch with a per-record fill, so a batch
// generator that draws the same random sequence produces a
// byte-identical dataset and ledger. Its fill closure names no generator,
// so it keeps no page: every read generates the partition afresh.
// Generator.Source's partitions come from the driver's GenStore.
func GenerateBatch[T any](d Driver, name string, n, parts int, fill func(r *rand.Rand, lo, hi int, out []T)) *RDD[T] {
	parts = sourceParts(d, n, parts)
	return generated(d, name, parts, fillPart(d.Seed(), n, parts, fill))
}

// sourceParts resolves a generated source's partition count: the
// driver's default for parts <= 0, at most one partition per record, and
// at least one.
func sourceParts(d Driver, n, parts int) int {
	if parts <= 0 {
		parts = d.DefaultParallelism()
	}
	if n > 0 && parts > n {
		parts = n
	}
	return max(parts, 1)
}

// fillPart returns the generator of partition part of n records over
// parts partitions: fill over the partition's records on its own stream,
// pure in (seed, part).
func fillPart[T any](seed int64, n, parts int, fill func(r *rand.Rand, lo, hi int, out []T)) func(part int) []T {
	return func(part int) []T {
		lo := part * n / parts
		hi := (part + 1) * n / parts
		out := make([]T, hi-lo)
		fill(rng.New(seed^int64(part)*0x9e3779b9), lo, hi, out)
		return out
	}
}

// generated is the source whose partition part holds records(part): each
// read charges chargeGenerated over them.
func generated[T any](d Driver, name string, parts int, records func(part int) []T) *RDD[T] {
	return newRDD(d, name, parts, nil, nil, func(ctx *executor.TaskContext, part int) []T {
		out := records(part)
		chargeGenerated(ctx, out)
		return out
	})
}

// chargeGenerated charges what producing a generated partition costs:
// HiBench reads the generated input from HDFS, so the disk scan is
// tier-independent, deserializing into the heap is not.
func chargeGenerated[T any](ctx *executor.TaskContext, out []T) {
	ctx.CPUPerRecord(len(out), ctx.Cost.GeneratePNS)
	bytes := SizeOfSlice(out)
	ctx.Disk(bytes)
	ctx.MemSeq(memsim.Write, bytes)
}
