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
	if parts <= 0 {
		parts = d.DefaultParallelism()
	}
	if n > 0 && parts > n {
		parts = n
	}
	if parts <= 0 {
		parts = 1
	}
	seed := d.Seed()
	return newRDD(d, name, parts, nil, nil, func(ctx *executor.TaskContext, part int) []T {
		lo := part * n / parts
		hi := (part + 1) * n / parts
		r := rng.New(seed ^ int64(part)*0x9e3779b9)
		out := make([]T, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, gen(r, i))
		}
		ctx.CPUPerRecord(len(out), ctx.Cost.GeneratePNS)
		bytes := SizeOfSlice(out)
		// HiBench reads the generated input from HDFS: the disk scan is
		// tier-independent, deserializing into the heap is not.
		ctx.Disk(bytes)
		ctx.MemSeq(memsim.Write, bytes)
		return out
	})
}

// GenerateBatch is Generate for batch-filling generators: fill populates
// the partition's pre-sized record buffer in one call (records [lo, hi)
// of the dataset), letting generators amortize per-record allocations —
// e.g. one shared key arena per partition instead of one string per
// record. The PRNG handoff and every charge are identical to Generate's,
// so a batch generator that draws the same random sequence produces a
// byte-identical dataset and ledger.
func GenerateBatch[T any](d Driver, name string, n, parts int, fill func(r *rand.Rand, lo, hi int, out []T)) *RDD[T] {
	if parts <= 0 {
		parts = d.DefaultParallelism()
	}
	if n > 0 && parts > n {
		parts = n
	}
	if parts <= 0 {
		parts = 1
	}
	seed := d.Seed()
	return newRDD(d, name, parts, nil, nil, func(ctx *executor.TaskContext, part int) []T {
		lo := part * n / parts
		hi := (part + 1) * n / parts
		r := rng.New(seed ^ int64(part)*0x9e3779b9)
		out := make([]T, hi-lo)
		fill(r, lo, hi, out)
		ctx.CPUPerRecord(len(out), ctx.Cost.GeneratePNS)
		bytes := SizeOfSlice(out)
		ctx.Disk(bytes)
		ctx.MemSeq(memsim.Write, bytes)
		return out
	})
}
