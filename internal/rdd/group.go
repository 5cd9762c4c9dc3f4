package rdd

import "math/bits"

// keyIndex numbers one task's distinct keys in first-seen order without a
// Go map. It stores slot numbers only, and reads the keys from the
// caller's output, where the key of slot i is out[i].Key. The slots live
// in one open-addressing table, probed linearly from the top bits of
// hash·2⁶⁴/φ: every key of one reduce partition shares hash mod parts, so
// the low bits a mask would take are alike there, while the multiply
// carries all 64 bits into the top ones. The hash is the key type's
// Hasher, which the hash partitioner already requires.
//
// The table is sized once from the record count, which bounds the
// distinct keys, so it stays at most half full without growing — up to
// maxPresized buckets: a larger input whose keys repeat would pay for
// buckets it never fills, so past that size the table doubles whenever it
// is half full. Below linearKeys records there is no table: a probe scans
// the output, and the index allocates nothing.
type keyIndex[K comparable, X any] struct {
	hash  Hasher[K]
	table []int32 // slot+1 of the key in each bucket; 0 is an empty bucket
	shift uint8
}

const (
	// linearKeys is the record count from which a keyIndex builds its
	// table.
	linearKeys = 8
	// maxPresized is the most buckets a keyIndex sizes from its record
	// count.
	maxPresized = 1 << 13
)

func newKeyIndex[K comparable, X any](hash Hasher[K], records int) keyIndex[K, X] {
	ix := keyIndex[K, X]{hash: hash}
	if records >= linearKeys {
		ix.resize(nil, min(1<<bits.Len(uint(2*records-1)), maxPresized))
	}
	return ix
}

// resize replaces the table with one of buckets buckets holding out's
// keys.
func (ix *keyIndex[K, X]) resize(out []Pair[K, X], buckets int) {
	ix.table = make([]int32, buckets)
	ix.shift = uint8(64 - bits.TrailingZeros(uint(buckets)))
	for i := range out {
		ix.place(out[i].Key, i)
	}
}

// home is the bucket k's probe sequence starts at.
func (ix *keyIndex[K, X]) home(k K) int {
	return int(ix.hash(k) * 0x9e3779b97f4a7c15 >> ix.shift)
}

// place puts slot, whose key k is not in the table, in the first empty
// bucket of k's probe sequence.
func (ix *keyIndex[K, X]) place(k K, slot int) {
	mask := len(ix.table) - 1
	b := ix.home(k)
	for ix.table[b] != 0 {
		b = (b + 1) & mask
	}
	ix.table[b] = int32(slot) + 1
}

// find returns k's slot in out and true, or len(out) and false for a new
// key, whose pair the caller then appends to out: it takes that slot.
func (ix *keyIndex[K, X]) find(out []Pair[K, X], k K) (int, bool) {
	if ix.table == nil {
		for i := range out {
			if out[i].Key == k {
				return i, true
			}
		}
		return len(out), false
	}
	mask := len(ix.table) - 1
	for b := ix.home(k); ; b = (b + 1) & mask {
		s := ix.table[b]
		if s == 0 {
			if 2*(len(out)+1) > len(ix.table) {
				ix.resize(out, 2*len(ix.table))
				ix.place(k, len(out))
			} else {
				ix.table[b] = int32(len(out)) + 1
			}
			return len(out), false
		}
		if out[s-1].Key == k {
			return int(s - 1), true
		}
	}
}

// keySlots numbers a reduce partition's distinct keys in first-seen order
// into out, one pair per key whose group value the caller fills in, and
// remembers every record's slot, so grouped values can be counted first
// and then carved out of one arena instead of grown key by key.
type keySlots[K comparable, G any] struct {
	index keyIndex[K, G]
	out   []Pair[K, G]
	of    []int32 // of[r] is the slot of the r-th record added
}

func newKeySlots[K comparable, G any](hash Hasher[K], records int) keySlots[K, G] {
	return keySlots[K, G]{index: newKeyIndex[K, G](hash, records), of: make([]int32, 0, records)}
}

func (s *keySlots[K, G]) add(keys []K) {
	for _, k := range keys {
		i, ok := s.index.find(s.out, k)
		if !ok {
			s.out = append(s.out, Pair[K, G]{Key: k})
		}
		s.of = append(s.of, int32(i))
	}
}

// carveGroups splits one arena of len(slots) values into a group per
// slot: empty, capped at the slot's record count so filling it never
// reallocates and a consumer's append never runs into its neighbour. A
// slot with no records keeps a nil group.
func carveGroups[V any](slots []int32, nSlots int) [][]V {
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
