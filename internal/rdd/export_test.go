package rdd

// Bytes is the serialized size b charges per task.
func (b *Broadcast[T]) Bytes() int64 { return b.bytes }

// FirstSeenSlots numbers keys through the key index behind every hash
// aggregation, sized from len(keys): each record's slot, and the distinct
// keys in slot order.
func FirstSeenSlots[K comparable](keys []K) ([]int32, []K) {
	s := newKeySlots[K, struct{}](HasherFor[K](), len(keys))
	s.add(keys)
	distinct := make([]K, len(s.out))
	for i, p := range s.out {
		distinct[i] = p.Key
	}
	return s.of, distinct
}
