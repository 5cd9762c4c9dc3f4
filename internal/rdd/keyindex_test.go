package rdd_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rdd"
	"repro/internal/workloads"
)

// The key index behind localCombine, mergeChunks, GroupByKey and CoGroup
// must number keys exactly as the map[K]int it replaced: first-seen order,
// one slot per distinct key. The record counts straddle the linear-scan
// threshold (7, 8, 9), reach a presized table (4096) and one that outgrows
// its presized buckets (3 × 8192 records, a third of them distinct).

func checkFirstSeen[K comparable](t *testing.T, name string, key func(i int) K) {
	t.Helper()
	for _, n := range []int{0, 1, 7, 8, 9, 4096, 3 * 8192} {
		prop := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			distinct := n/3 + 1
			keys := make([]K, n)
			for i := range keys {
				keys[i] = key(r.Intn(distinct)) // duplicates throughout
			}
			slots, got := rdd.FirstSeenSlots(keys)
			index := map[K]int{}
			var want []K
			for i, k := range keys {
				s, ok := index[k]
				if !ok {
					s = len(want)
					index[k] = s
					want = append(want, k)
				}
				if slots[i] != int32(s) {
					return false
				}
			}
			return len(slots) == n && slices.Equal(got, want)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
			t.Errorf("%s keys, %d records: slots differ from map numbering: %v", name, n, err)
		}
	}
}

// cellKey is a multi-field struct key, hashed through its fields.
type cellKey struct {
	Node, Feat, Bin int
}

func (k cellKey) Hash64() uint64 {
	return rdd.HashInt64(int64(k.Node)<<40 | int64(k.Feat)<<16 | int64(k.Bin))
}

func TestKeyIndexMatchesMapNumbering(t *testing.T) {
	// k·80+r: every key is r mod 80.
	checkFirstSeen(t, "k·80+r int", func(i int) int { return i*80 + 17 })
	// Keys one reduce partition of 80 receives: every hash is r mod 80,
	// so its low bits are alike.
	hash := rdd.HasherFor[int]()
	var same []int
	for k := 0; len(same) <= 8192; k++ {
		if hash(k)%80 == 17 {
			same = append(same, k)
		}
	}
	checkFirstSeen(t, "same-partition int", func(i int) int { return same[i] })
	checkFirstSeen(t, "string", func(i int) string { return fmt.Sprintf("key-%05d", i) })
	checkFirstSeen(t, "ClassTok", func(i int) workloads.ClassTok { return workloads.ClassTok{C: i % 100, T: i / 100} })
	checkFirstSeen(t, "cellKey", func(i int) cellKey { return cellKey{Node: i % 7, Feat: i / 56, Bin: i / 7 % 8} })
}

// FlatMap appends each record's outputs to the partition's page: an f
// that appends nothing yields an empty dataset, one that appends many
// yields them all, in input order.
func TestFlatMapAppendsInOrder(t *testing.T) {
	app := newApp()
	in := rdd.Parallelize(app, "in", ints(200), 8)
	none := rdd.FlatMap(in, func(dst []int, v int) []int { return dst })
	if got := rdd.Collect(none); len(got) != 0 {
		t.Fatalf("appending nothing yielded %d records", len(got))
	}
	many := rdd.FlatMap(in, func(dst []int, v int) []int {
		for j := 0; j < v%5; j++ {
			dst = append(dst, v*10+j)
		}
		return dst
	})
	var want []int
	for _, v := range ints(200) {
		for j := 0; j < v%5; j++ {
			want = append(want, v*10+j)
		}
	}
	if got := rdd.Collect(many); !slices.Equal(got, want) {
		t.Fatalf("FlatMap = %d records, want %d (or they differ)", len(got), len(want))
	}
}

// Join equals the nested-loop join: every (left, right) value pair of
// each key present on both sides, and nothing for a key on one side only.
func TestJoinMatchesNestedLoop(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var left []rdd.Pair[int, int]
	var right []rdd.Pair[int, string]
	for i := 0; i < 300; i++ {
		left = append(left, rdd.KV(r.Intn(60), i)) // keys 0..59
	}
	for i := 0; i < 200; i++ {
		right = append(right, rdd.KV(40+r.Intn(60), fmt.Sprint(i))) // keys 40..99
	}
	type row struct {
		K, V int
		W    string
	}
	var want []row
	for _, a := range left {
		for _, b := range right {
			if a.Key == b.Key {
				want = append(want, row{a.Key, a.Val, b.Val})
			}
		}
	}
	app := newApp()
	joined := rdd.Collect(rdd.Join(rdd.Parallelize(app, "left", left, 4), rdd.Parallelize(app, "right", right, 3), 5))
	got := make([]row, len(joined))
	for i, p := range joined {
		got[i] = row{p.Key, p.Val.A, p.Val.B}
	}
	order := func(a, b row) int {
		return cmp.Or(cmp.Compare(a.K, b.K), cmp.Compare(a.V, b.V), cmp.Compare(a.W, b.W))
	}
	slices.SortFunc(got, order)
	slices.SortFunc(want, order)
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("join = %d rows, nested loop %d (or they differ)", len(got), len(want))
	}
}
