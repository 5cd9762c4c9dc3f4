package rdd

import "testing"

// TestCarveGroupsIsolatesNeighbours pins the arena contract GroupByKey and
// CoGroup hand their consumers: groups fill without reallocating, an
// append past a group's records copies it away instead of overwriting the
// next group, and a slot with no records stays nil.
func TestCarveGroupsIsolatesNeighbours(t *testing.T) {
	slots := newKeySlots[string, []int](HasherFor[string](), 5)
	slots.add([]string{"a", "b", "a"})
	slots.add([]string{"c", "a"})
	if got := len(slots.out); got != 3 {
		t.Fatalf("distinct keys = %d, want 3", got)
	}
	groups := carveGroups[int](slots.of, 4) // slot 3 has no records
	for r, i := range slots.of {
		groups[i] = append(groups[i], r)
	}
	if groups[3] != nil {
		t.Fatalf("empty slot carved a group: %v", groups[3])
	}
	a := append(groups[0], 99)
	if got := groups[1]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("append to group a clobbered group b: %v", got)
	}
	if want := []int{0, 2, 4, 99}; len(a) != 4 || a[3] != 99 || a[2] != want[2] {
		t.Fatalf("group a = %v, want %v", a, want)
	}
	if &groups[0][0] == &a[0] {
		t.Fatal("append past a group's cap did not copy")
	}
}

// Below linearKeys records the key index has no table: numbering a few
// keys allocates nothing.
func TestKeyIndexBelowLinearKeysAllocatesNothing(t *testing.T) {
	keys := []int{5, 3, 5, 9, 3, 1, 5}
	if len(keys) >= linearKeys {
		t.Fatalf("fixture has %d keys, not below linearKeys %d", len(keys), linearKeys)
	}
	hash := HasherFor[int]()
	out := make([]Pair[int, int], 0, len(keys))
	allocs := testing.AllocsPerRun(100, func() {
		ix := newKeyIndex[int, int](hash, len(keys))
		out = out[:0]
		for _, k := range keys {
			if i, ok := ix.find(out, k); ok {
				out[i].Val++
			} else {
				out = append(out, KV(k, 1))
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("numbering %d keys allocated %v times", len(keys), allocs)
	}
	if len(out) != 4 || out[0] != KV(5, 3) || out[3] != KV(1, 1) {
		t.Fatalf("counts = %v", out)
	}
}
