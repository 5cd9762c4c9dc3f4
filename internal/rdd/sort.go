package rdd

import "encoding/binary"

// sortRun is the length of the insertion-sorted runs stableSort starts
// its merges from.
const sortRun = 16

// stableSort sorts s in place, keeping equal elements in their input
// order. It is a bottom-up merge sort — insertion-sorted runs of sortRun
// elements, then ping-pong merges between s and one scratch slice of the
// same length — so every element moves O(log n) times, the comparator is
// a direct generic call (no reflection-built swapper), and elements are
// compared through pointers so wide records are not copied to be ordered.
// A stable sort's output is unique for a given comparator, so the choice
// of algorithm cannot show in the virtual ledger.
func stableSort[T any](s []T, less func(a, b *T) bool) {
	n := len(s)
	for lo := 0; lo < n; lo += sortRun {
		insertionSort(s[lo:min(lo+sortRun, n)], less)
	}
	if n <= sortRun {
		return
	}
	src, dst := s, make([]T, n)
	for width := sortRun; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			mergeRuns(dst[lo:hi], src[lo:mid], src[mid:hi], less)
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

func insertionSort[T any](s []T, less func(a, b *T) bool) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(&s[j], &s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// mergeRuns merges the sorted runs a and b into dst (len(a)+len(b)
// elements), taking from a on ties.
func mergeRuns[T any](dst, a, b []T, less func(a, b *T) bool) {
	if len(b) == 0 || !less(&b[0], &a[len(a)-1]) {
		// Already in order (or a lone tail run): one bulk move.
		copy(dst[copy(dst, a):], b)
		return
	}
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(&b[j], &a[i]) {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// prefixEntry is one record of a prefix sort's index: the key's 8-byte
// prefix and the record's position in the fetched chunks, chunk<<32|row.
// It holds no pointers, so the collector never scans the index, and a
// radix pass moves 16 bytes per record instead of the whole pair.
type prefixEntry struct {
	pfx uint64
	pos uint64
}

// keyPrefix is s's first 8 bytes read big-endian, zero-padded. It orders
// strings coarsely: keyPrefix(a) < keyPrefix(b) implies a < b, and only
// equal prefixes ("ab" and "ab\x00", or keys sharing 8 bytes) need the
// full compare.
func keyPrefix(s string) uint64 {
	var b [8]byte
	copy(b[:], s)
	return binary.BigEndian.Uint64(b[:])
}

// prefixSort fills out (one slot per record) with the chunks' records
// sorted stably by key, where prefix agrees with less as keyPrefix does
// with <. It radix-sorts an index of (prefix, position) built over the
// chunks, stable-sorts by the full key only inside runs of equal prefix,
// then gathers each record once. A position is chunk<<32|row, so
// positions ascend in input order, and sorting by (key, position) is
// exactly a stable sort by key: the output equals gathering the chunks in
// order and calling stableSort.
func prefixSort[K comparable, V any](out []Pair[K, V], chunks []Chunk[K, V],
	less func(a, b K) bool, prefix func(K) uint64) {
	n := len(out)
	buf := make([]prefixEntry, 2*n)
	i := 0
	for c, ch := range chunks {
		for j, k := range ch.Keys {
			buf[i] = prefixEntry{prefix(k), uint64(c)<<32 | uint64(j)}
			i++
		}
	}
	idx := radixSortPrefixes(buf[:n], buf[n:])
	keyAt := func(pos uint64) K { return chunks[pos>>32].Keys[uint32(pos)] }
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && idx[hi].pfx == idx[lo].pfx {
			hi++
		}
		if hi-lo > 1 {
			stableSort(idx[lo:hi], func(a, b *prefixEntry) bool { return less(keyAt(a.pos), keyAt(b.pos)) })
		}
		lo = hi
	}
	for i, e := range idx {
		ch, row := &chunks[e.pos>>32], uint32(e.pos)
		out[i] = KV(ch.Keys[row], ch.Vals[row])
	}
}

// radixSortPrefixes stably sorts idx by pfx with an LSD radix sort, one
// byte per pass, ping-ponging between idx and scratch (same length); it
// returns whichever of the two holds the result. One counting pass builds
// all eight histograms, and a byte every entry shares is skipped, since
// its pass would move nothing.
func radixSortPrefixes(idx, scratch []prefixEntry) []prefixEntry {
	if len(idx) == 0 {
		return idx
	}
	var counts [8][256]int
	for _, e := range idx {
		for b := range counts {
			counts[b][byte(e.pfx>>(8*b))]++
		}
	}
	for b := range counts {
		shift := 8 * b
		c := &counts[b]
		if c[byte(idx[0].pfx>>shift)] == len(idx) {
			continue
		}
		sum := 0
		for d, k := range c {
			c[d] = sum
			sum += k
		}
		for _, e := range idx {
			d := byte(e.pfx >> shift)
			scratch[c[d]] = e
			c[d]++
		}
		idx, scratch = scratch, idx
	}
	return idx
}
