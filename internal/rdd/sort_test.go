package rdd

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
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

// prefixKeys draws n keys built to trip a prefix sort: lengths 0–12 over
// {0x00, 'a', 'b', 0x80, 0xff}, half of the long ones sharing one 8-byte
// prefix, so keys tie on the prefix and differ only past it, zero-padded
// look-alikes ("ab" and "ab\x00") share a prefix, bytes ≥ 0x80 must order
// above ASCII, and short keys repeat.
func prefixKeys(r *rand.Rand, n int) []string {
	const alphabet, shared = "\x00ab\x80\xff", "ab\x80\xffab\x00a"
	keys := make([]string, n)
	for i := range keys {
		b := make([]byte, r.Intn(13))
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet))]
		}
		if len(b) >= len(shared) && r.Intn(2) == 0 {
			copy(b, shared)
		}
		keys[i] = string(b)
	}
	return keys
}

// TestPrefixSortMatchesSortStableFunc is the prefix sort's oracle: its
// output equals slices.SortStableFunc by strings.Compare over the chunks'
// concatenation, input position (the value) included, across the radix
// sort's and sortRun's edges and with the records cut into chunks at
// random, empty chunks included.
func TestPrefixSortMatchesSortStableFunc(t *testing.T) {
	for _, n := range []int{0, 1, 16, 17, 255, 256, 257, 4000} {
		n := n
		prop := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			want := make([]Pair[string, int], n)
			for i, k := range prefixKeys(r, n) {
				want[i] = KV(k, i)
			}
			chunks := randomChunks(r, want)
			slices.SortStableFunc(want, func(a, b Pair[string, int]) int { return strings.Compare(a.Key, b.Key) })
			got := make([]Pair[string, int], n)
			prefixSort(got, chunks, func(a, b string) bool { return a < b }, keyPrefix)
			for i := range want {
				if got[i] != want[i] {
					t.Logf("n=%d: element %d is (%q, %d), want (%q, %d)", n, i, got[i].Key, got[i].Val, want[i].Key, want[i].Val)
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("length %d: %v", n, err)
		}
	}
}

// randomChunks cuts recs into up to 8 columnar chunks at random
// boundaries; a chunk may be empty.
func randomChunks[K comparable, V any](r *rand.Rand, recs []Pair[K, V]) []Chunk[K, V] {
	chunks := make([]Chunk[K, V], 1+r.Intn(8))
	for c := range chunks {
		take := len(recs)
		if c < len(chunks)-1 {
			take = r.Intn(len(recs) + 1)
		}
		for _, p := range recs[:take] {
			chunks[c].Keys = append(chunks[c].Keys, p.Key)
			chunks[c].Vals = append(chunks[c].Vals, p.Val)
		}
		recs = recs[take:]
	}
	return chunks
}
