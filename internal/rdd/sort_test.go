package rdd

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestStableSortMatchesSliceStable pins the property the frozen ledger
// rests on: stableSort's output equals sort.SliceStable's element for
// element, duplicates included, at every run-boundary length.
func TestStableSortMatchesSliceStable(t *testing.T) {
	type rec = Pair[uint8, int] // few distinct keys; Val is the input position
	less := func(a, b *rec) bool { return a.Key < b.Key }
	check := func(seed int64, n int, keys uint8) bool {
		r := rand.New(rand.NewSource(seed))
		got := make([]rec, n)
		for i := range got {
			got[i] = KV(uint8(r.Intn(int(keys)+1)), i)
		}
		want := append([]rec(nil), got...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Key < want[j].Key })
		stableSort(got, less)
		for i := range want {
			if got[i] != want[i] {
				t.Logf("n=%d keys=%d: element %d is %v, want %v", n, keys, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	for _, n := range []int{0, 1, sortRun - 1, sortRun, sortRun + 1, 2*sortRun + 1, 4000} {
		n := n
		prop := func(seed int64, keys uint8) bool { return check(seed, n, keys) }
		if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("length %d: %v", n, err)
		}
	}
	// Already sorted and reversed inputs take the bulk-move and the
	// all-from-b merge paths.
	for _, n := range []int{sortRun + 1, 1000} {
		asc := make([]rec, n)
		for i := range asc {
			asc[i] = KV(uint8(i*200/n), i)
		}
		desc := make([]rec, n)
		for i := range desc {
			desc[i] = KV(uint8(200-i*200/n), i)
		}
		for _, in := range [][]rec{asc, desc} {
			want := append([]rec(nil), in...)
			sort.SliceStable(want, func(i, j int) bool { return want[i].Key < want[j].Key })
			stableSort(in, less)
			for i := range want {
				if in[i] != want[i] {
					t.Fatalf("ordered input n=%d: element %d is %v, want %v", n, i, in[i], want[i])
				}
			}
		}
	}
}
