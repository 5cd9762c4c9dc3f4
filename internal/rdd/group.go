package rdd

// keySlots numbers a reduce partition's distinct keys in first-seen order
// and remembers every record's slot, so grouped values can be counted
// first and then carved out of one arena instead of grown key by key.
type keySlots[K comparable] struct {
	index map[K]int
	keys  []K
	of    []int // of[r] is the slot of the r-th record added
}

func newKeySlots[K comparable](records int) *keySlots[K] {
	return &keySlots[K]{index: make(map[K]int), of: make([]int, 0, records)}
}

func (s *keySlots[K]) add(keys []K) {
	for _, k := range keys {
		i, ok := s.index[k]
		if !ok {
			i = len(s.keys)
			s.index[k] = i
			s.keys = append(s.keys, k)
		}
		s.of = append(s.of, i)
	}
}

// carveGroups splits one arena of len(slots) values into a group per
// slot: empty, capped at the slot's record count so filling it never
// reallocates and a consumer's append never runs into its neighbour. A
// slot with no records keeps a nil group.
func carveGroups[V any](slots []int, nSlots int) [][]V {
	counts := make([]int, nSlots)
	for _, i := range slots {
		counts[i]++
	}
	arena := make([]V, len(slots))
	groups := make([][]V, nSlots)
	off := 0
	for i, c := range counts {
		if c > 0 {
			groups[i] = arena[off : off : off+c]
			off += c
		}
	}
	return groups
}

// chunkRecords is the number of records in a fetched reduce input.
func chunkRecords[K comparable, V any](chunks []Chunk[K, V]) int {
	n := 0
	for _, ch := range chunks {
		n += ch.Len()
	}
	return n
}
