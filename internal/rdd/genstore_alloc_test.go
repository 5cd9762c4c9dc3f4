package rdd

import "testing"

// The store's bookkeeping — the count, the generation span's stopwatch,
// the lookup — allocates nothing per ask and nothing per fill beyond the
// page's typed slot.
func TestGenStoreAllocations(t *testing.T) {
	s := NewGenStore(false)
	page := []int{1, 2, 3}
	fill := func(int, struct{}) []int { return page }
	part := 0
	perFill := testing.AllocsPerRun(1000, func() {
		part++
		storedPage(s, genKey{gen: "x", params: struct{}{}, part: part}, fill, struct{}{}, SizeOfSlice[int])
	})
	perHit := testing.AllocsPerRun(1000, func() {
		storedPage(s, genKey{gen: "x", params: struct{}{}, part: 1}, fill, struct{}{}, SizeOfSlice[int])
	})
	if perFill > 1 || perHit != 0 {
		t.Errorf("%.2f allocs per fill, %.2f per hit; want at most 1 and 0", perFill, perHit)
	}
}
