package rdd

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestHashAnyStability(t *testing.T) {
	if HashAny("spark") != HashAny("spark") {
		t.Error("string hash unstable")
	}
	if HashAny(42) != HashAny(int(42)) {
		t.Error("int hash unstable")
	}
	if HashAny("a") == HashAny("b") {
		t.Error("trivial string collision")
	}
	if HashAny(true) == HashAny(false) {
		t.Error("bool collision")
	}
	if HashAny(1.5) != HashAny(1.5) {
		t.Error("float hash unstable")
	}
}

type customKey struct{ v uint64 }

func (c customKey) Hash64() uint64 { return c.v * 3 }

func TestHashAnyHashable(t *testing.T) {
	if HashAny(customKey{7}) != 21 {
		t.Error("Hashable not honored")
	}
}

func TestHashAnyUnsupportedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsupported key did not panic")
		}
	}()
	HashAny(struct{ X int }{1})
}

func TestPartitionOfBounds(t *testing.T) {
	prop := func(k int64, n uint8) bool {
		parts := int(n%32) + 1
		p := PartitionOf(k, parts)
		return p >= 0 && p < parts
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPartitionOfSpread(t *testing.T) {
	// Dense integer keys must spread over partitions, not clump.
	const parts = 8
	counts := make([]int, parts)
	for i := 0; i < 8000; i++ {
		counts[PartitionOf(i, parts)]++
	}
	for p, c := range counts {
		if c < 500 || c > 1500 {
			t.Fatalf("partition %d holds %d of 8000 keys: bad spread", p, c)
		}
	}
}

func TestSizeOfKnownTypes(t *testing.T) {
	cases := []struct {
		v    any
		want int64
	}{
		{"abcd", 20},
		{[]byte{1, 2}, 26},
		{int(7), 8},
		{3.14, 8},
		{true, 1},
		{[]int{1, 2, 3}, 48},
		{[]float64{1}, 32},
		{nil, 0},
		{struct{}{}, 32}, // default estimate
	}
	for _, c := range cases {
		if got := SizeOf(c.v); got != c.want {
			t.Errorf("SizeOf(%#v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestSizeOfPairAndSlices(t *testing.T) {
	p := KV("ab", int64(1))
	if p.ByteSize() != 18+8 {
		t.Errorf("pair size = %d, want 26", p.ByteSize())
	}
	s := []Pair[string, int64]{p, p}
	if got := SizeOfSlice(s); got != 24+2*26 {
		t.Errorf("slice size = %d, want 76", got)
	}
}

func TestTwoAndCoGroupedSizes(t *testing.T) {
	tw := Two[int64, string]{1, "xy"}
	if tw.ByteSize() != 8+18 {
		t.Errorf("Two size = %d", tw.ByteSize())
	}
	cg := CoGrouped[int64, int64]{Left: []int64{1, 2}, Right: []int64{3}}
	if cg.ByteSize() != 48+24 {
		t.Errorf("CoGrouped size = %d", cg.ByteSize())
	}
}

func TestRangePartitionerOrdering(t *testing.T) {
	less := func(a, b int) bool { return a < b }
	sample := []int{50, 10, 90, 30, 70, 20, 80, 40, 60, 0}
	rp := NewRangePartitioner(sample, 4, less)
	if rp.NumPartitions() < 2 {
		t.Fatalf("partitions = %d", rp.NumPartitions())
	}
	last := -1
	for k := 0; k <= 100; k++ {
		p := rp.PartitionFor(k)
		if p < last {
			t.Fatalf("partition not monotone in key at %d: %d < %d", k, p, last)
		}
		last = p
	}
}

func TestRangePartitionerEmptySample(t *testing.T) {
	rp := NewRangePartitioner(nil, 4, func(a, b int) bool { return a < b })
	if rp.NumPartitions() != 1 {
		t.Fatalf("empty sample should yield 1 effective partition, got %d", rp.NumPartitions())
	}
	if rp.PartitionFor(123) != 0 {
		t.Error("all keys must land in partition 0")
	}
}

func TestRangePartitionerDuplicateHeavySample(t *testing.T) {
	sample := []int{5, 5, 5, 5, 5, 5}
	rp := NewRangePartitioner(sample, 3, func(a, b int) bool { return a < b })
	// Duplicate bounds are dropped; keys still partition validly.
	for _, k := range []int{0, 5, 9} {
		p := rp.PartitionFor(k)
		if p < 0 || p >= rp.NumPartitions() {
			t.Fatalf("key %d -> partition %d out of range", k, p)
		}
	}
}

func TestHashPartitioner(t *testing.T) {
	hp := HashPartitioner[string]{Parts: 5}
	if hp.NumPartitions() != 5 {
		t.Fatal("NumPartitions wrong")
	}
	p := hp.PartitionFor("key")
	if p < 0 || p >= 5 {
		t.Fatalf("partition %d out of range", p)
	}
}

// TestOrderedRangePartitionerMatchesGeneric pins the prefix PartitionFor
// to the generic sort.Search path: same bounds, same partition for every
// probe key, on samples that are empty, duplicate-heavy or prefix-tied.
func TestOrderedRangePartitionerMatchesGeneric(t *testing.T) {
	less := func(a, b string) bool { return a < b }
	prop := func(seed int64, size, parts uint8, dupHeavy bool) bool {
		r := rand.New(rand.NewSource(seed))
		sample := prefixKeys(r, int(size)%64)
		if dupHeavy && len(sample) > 0 {
			for i := range sample {
				sample[i] = sample[r.Intn(min(3, len(sample)))]
			}
		}
		p := int(parts)%12 + 1
		generic := NewRangePartitioner(sample, p, less)
		ordered := newOrderedRangePartitioner(slices.Clone(sample), p)
		if !slices.Equal(generic.Bounds, ordered.Bounds) {
			t.Logf("bounds %q, want %q", ordered.Bounds, generic.Bounds)
			return false
		}
		for _, k := range append(prefixKeys(r, 200), sample...) {
			if got, want := ordered.PartitionFor(k), generic.PartitionFor(k); got != want {
				t.Logf("key %q: partition %d, want %d (bounds %q)", k, got, want, generic.Bounds)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
