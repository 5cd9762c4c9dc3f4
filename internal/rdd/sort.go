package rdd

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
