package rdd

import (
	"repro/internal/blockmgr"
	"repro/internal/executor"
	"repro/internal/memsim"
)

// Cache returns a dataset that persists computed partitions in the
// executor-local block manager (MEMORY_ONLY semantics): a hit streams the
// block back from the memory tier it is resident on (the landing tier
// until the dynamic tiering engine migrates it); a miss computes from
// lineage and writes the block to the landing tier. Evicted blocks are
// recomputed on next access, exactly like Spark.
func Cache[T any](r *RDD[T]) *RDD[T] {
	if r.cached {
		return r
	}
	cached := newRDD[T](r.base.driver, r.base.Name+".cached", r.base.NumParts,
		r.base, nil, nil)
	cached.cached = true
	id := cached.base.ID
	cached.compute = func(ctx *executor.TaskContext, part int) []T {
		block := blockmgr.BlockID{RDD: id, Partition: part}
		if data, bytes, _, ok := ctx.GetBlock(block); ok {
			ctx.CacheBlockSeq(block, memsim.Read, bytes)
			return data.([]T)
		}
		out := r.Compute(ctx, part)
		bytes := SizeOfSlice(out)
		ctx.CacheBlockSeq(block, memsim.Write, bytes)
		ctx.PutBlock(block, out, bytes, len(out))
		return out
	}
	return cached
}
