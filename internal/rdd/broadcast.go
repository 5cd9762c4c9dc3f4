package rdd

import (
	"fmt"

	"repro/internal/executor"
	"repro/internal/memsim"
)

// Broadcast is a read-only value shipped from the driver to every
// executor once per task, like Spark's broadcast variables: the first
// access within a task charges a streaming read of the serialized value
// from the executor's heap tier; further accesses are free (the value is
// already local).
type Broadcast[T any] struct {
	id    int
	value T
	bytes int64
}

// NewBroadcast registers a driver-side value for broadcasting. bytes is
// the serialized size charged on first access per task; pass 0 to estimate
// it with SizeOf.
func NewBroadcast[T any](d Driver, value T, bytes int64) *Broadcast[T] {
	if bytes <= 0 {
		bytes = SizeOf(any(value))
	}
	return &Broadcast[T]{id: d.NextRDDID(), value: value, bytes: bytes}
}

// Value returns the broadcast value, charging the per-task fetch on first
// access.
func (b *Broadcast[T]) Value(ctx *executor.TaskContext) T {
	if ctx == nil {
		panic(fmt.Sprintf("rdd: broadcast %d accessed outside a task", b.id))
	}
	if ctx.Once(uint64(b.id)*0x9e3779b97f4a7c15 + 0xb7) {
		ctx.MemSeq(memsim.Read, b.bytes)
		ctx.CPU(float64(b.bytes) * ctx.Cost.SerDePerB)
	}
	return b.value
}
