package rdd

import (
	"math/rand"
	"sync/atomic"

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
// byte-identical dataset and ledger. A partition's compute is
// chargeGenerated over its fill, which SortBy splits apart (see
// parkedSource). Its fill closure names no generator, so its partitions
// are never shared through a GenStore; Generator.Source's are.
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
	fillPart := func(part int) []T {
		lo := part * n / parts
		hi := (part + 1) * n / parts
		out := make([]T, hi-lo)
		fill(rng.New(seed^int64(part)*0x9e3779b9), lo, hi, out)
		return out
	}
	src := newRDD[T](d, name, parts, nil, nil, nil)
	src.fill = fillPart
	src.compute = func(ctx *executor.TaskContext, part int) []T {
		out := src.fill(part)
		chargeGenerated(ctx, out)
		return out
	}
	return src
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

// parkedSource reads a generated source for two jobs in a row — a sampling
// job, then the map stage of the shuffle it sampled for — generating each
// partition once. The first job's task parks the partition it generated;
// the second job's task for that partition takes it out of its slot.
// Either task charges exactly what computing the source charges, so the
// virtual ledger cannot tell a parked partition from a regenerated one. A
// retried attempt or a resubmitted map stage finds the slot empty and
// regenerates: fill is pure in (seed, partition), so the records are
// identical.
func parkedSource[T any](r *RDD[T]) (park, take func(ctx *executor.TaskContext, part int) []T) {
	slots := make([]atomic.Pointer[[]T], r.base.NumParts)
	park = func(ctx *executor.TaskContext, part int) []T {
		out := r.fill(part)
		slots[part].Store(&out)
		chargeGenerated(ctx, out)
		return out
	}
	take = func(ctx *executor.TaskContext, part int) []T {
		var out []T
		if p := slots[part].Swap(nil); p != nil {
			out = *p
		} else {
			out = r.fill(part)
		}
		chargeGenerated(ctx, out)
		return out
	}
	return park, take
}
