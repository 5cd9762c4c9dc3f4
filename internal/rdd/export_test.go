package rdd

// Bytes is the serialized size b charges per task.
func (b *Broadcast[T]) Bytes() int64 { return b.bytes }
