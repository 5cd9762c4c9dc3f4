package rdd

import (
	"cmp"
	"slices"
	"sort"
)

// Partitioner assigns keys to reduce partitions.
type Partitioner[K comparable] interface {
	NumPartitions() int
	PartitionFor(k K) int
}

// HashPartitioner spreads keys by hash, Spark's default. Construct with
// NewHashPartitioner on hot paths: it resolves the key type's specialized
// hasher once, so per-record partitioning never boxes the key. A
// zero-hasher literal (HashPartitioner[K]{Parts: n}) still works and falls
// back to the boxing PartitionOf with identical assignments.
type HashPartitioner[K comparable] struct {
	Parts int
	hash  Hasher[K]
}

// NewHashPartitioner builds a hash partitioner with the key type's
// specialized hasher resolved up front.
func NewHashPartitioner[K comparable](parts int) HashPartitioner[K] {
	return HashPartitioner[K]{Parts: parts, hash: HasherFor[K]()}
}

// NumPartitions returns the partition count.
func (p HashPartitioner[K]) NumPartitions() int { return p.Parts }

// PartitionFor hashes the key modulo the partition count.
func (p HashPartitioner[K]) PartitionFor(k K) int {
	if p.hash != nil {
		return int(p.hash(k) % uint64(p.Parts))
	}
	//simlint:allow hotbox zero-literal fallback: construction sites that care use NewHashPartitioner
	return PartitionOf(any(k), p.Parts)
}

// RangePartitioner assigns keys to ordered ranges, used by sortByKey so
// that concatenating sorted partitions yields a totally sorted dataset.
type RangePartitioner[K comparable] struct {
	// Bounds are the upper bounds of partitions 0..n-2, ascending.
	Bounds []K
	Less   func(a, b K) bool
	// prefix, when set, agrees with Less as keyPrefix does with < on
	// strings, and boundPfx holds the bounds' prefixes: PartitionFor
	// then compares integers and calls Less only on a prefix tie.
	prefix   func(K) uint64
	boundPfx []uint64
}

// NumPartitions returns len(Bounds)+1.
func (p RangePartitioner[K]) NumPartitions() int { return len(p.Bounds) + 1 }

// PartitionFor binary-searches the key into its range: the first
// partition whose bound is greater than k.
func (p RangePartitioner[K]) PartitionFor(k K) int {
	if p.prefix == nil {
		return sort.Search(len(p.Bounds), func(i int) bool { return p.Less(k, p.Bounds[i]) })
	}
	x := p.prefix(k)
	lo, hi := 0, len(p.boundPfx)
	for lo < hi { // sort.Search, inlined: a closure call per step costs as much as the compare
		m := int(uint(lo+hi) >> 1)
		if b := p.boundPfx[m]; x < b || x == b && p.Less(k, p.Bounds[m]) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// NewRangePartitioner derives partition bounds from a sorted-or-not sample
// of keys, mirroring Spark's sampled range partitioning. parts must be
// positive; with fewer distinct sample keys than parts, trailing
// partitions simply stay empty.
func NewRangePartitioner[K comparable](sample []K, parts int, less func(a, b K) bool) RangePartitioner[K] {
	sorted := make([]K, len(sample))
	copy(sorted, sample)
	sort.Slice(sorted, func(i, j int) bool { return less(sorted[i], sorted[j]) })
	return rangeBounds(sorted, parts, less, nil)
}

// newOrderedRangePartitioner is NewRangePartitioner for the natural
// order, sorting the sample in place. It resolves the key prefix once per
// operation, the way HasherFor resolves a hasher: keyPrefix for string
// keys, none (compare through cmp.Less only) for every other key type.
func newOrderedRangePartitioner[K cmp.Ordered](sample []K, parts int) RangePartitioner[K] {
	slices.Sort(sample)
	prefix, _ := any(keyPrefix).(func(K) uint64)
	return rangeBounds(sample, parts, cmp.Less[K], prefix)
}

// rangeBounds picks parts-1 evenly spaced bounds from a sample sorted by
// less, dropping duplicates.
func rangeBounds[K comparable](sorted []K, parts int, less func(a, b K) bool, prefix func(K) uint64) RangePartitioner[K] {
	if parts <= 0 {
		panic("rdd: range partitioner with non-positive partition count")
	}
	p := RangePartitioner[K]{Less: less, prefix: prefix}
	if len(sorted) > 0 {
		for i := 1; i < parts; i++ {
			idx := i * len(sorted) / parts
			if idx >= len(sorted) {
				idx = len(sorted) - 1
			}
			b := sorted[idx]
			// Skip duplicate bounds to keep ranges strictly increasing.
			if len(p.Bounds) == 0 || less(p.Bounds[len(p.Bounds)-1], b) {
				p.Bounds = append(p.Bounds, b)
			}
		}
	}
	if prefix != nil {
		p.boundPfx = make([]uint64, len(p.Bounds))
		for i, b := range p.Bounds {
			p.boundPfx[i] = prefix(b)
		}
	}
	return p
}
