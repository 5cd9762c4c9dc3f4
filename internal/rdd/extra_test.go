package rdd_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/rdd"
)

func TestCoalesceMergesPartitions(t *testing.T) {
	app := newApp()
	r := rdd.Parallelize(app, "xs", ints(100), 10)
	c := rdd.Coalesce(r, 3)
	if c.NumPartitions() != 3 {
		t.Fatalf("parts = %d, want 3", c.NumPartitions())
	}
	got := rdd.Collect(c)
	if len(got) != 100 {
		t.Fatalf("records = %d, want 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken at %d: %d", i, v)
		}
	}
	// Coalescing to the same width is a no-op returning the receiver.
	if rdd.Coalesce(c, 3) != c {
		t.Fatal("same-width coalesce should be identity")
	}
}

func TestCoalesceValidation(t *testing.T) {
	app := newApp()
	r := rdd.Parallelize(app, "xs", ints(10), 2)
	defer func() {
		if recover() == nil {
			t.Error("widening coalesce did not panic")
		}
	}()
	rdd.Coalesce(r, 5)
}

func TestGlom(t *testing.T) {
	app := newApp()
	r := rdd.Parallelize(app, "xs", ints(10), 5)
	g := rdd.Collect(rdd.Glom(r))
	if len(g) != 5 {
		t.Fatalf("glommed partitions = %d, want 5", len(g))
	}
	total := 0
	for _, part := range g {
		total += len(part)
	}
	if total != 10 {
		t.Fatalf("glom lost records: %d", total)
	}
}

func TestIntersection(t *testing.T) {
	app := newApp()
	a := rdd.Parallelize(app, "a", []int{1, 2, 3, 4, 4}, 2)
	b := rdd.Parallelize(app, "b", []int{3, 4, 5, 3}, 2)
	got := rdd.Collect(rdd.Intersection(a, b, 3))
	sort.Ints(got)
	if fmt.Sprint(got) != "[3 4]" {
		t.Fatalf("intersection = %v, want [3 4]", got)
	}
}

func TestSubtractByKey(t *testing.T) {
	app := newApp()
	a := rdd.Parallelize(app, "a", []rdd.Pair[int, string]{
		rdd.KV(1, "keep"), rdd.KV(2, "drop"), rdd.KV(3, "keep"), rdd.KV(3, "keep2"),
	}, 2)
	b := rdd.Parallelize(app, "b", []rdd.Pair[int, int]{rdd.KV(2, 0)}, 1)
	got := rdd.Collect(rdd.SubtractByKey(a, b, 2))
	keys := map[int]int{}
	for _, p := range got {
		keys[p.Key]++
	}
	if len(got) != 3 || keys[1] != 1 || keys[3] != 2 || keys[2] != 0 {
		t.Fatalf("subtractByKey = %v", got)
	}
}

func TestTakeOrderedAndTop(t *testing.T) {
	app := newApp()
	data := []int{9, 1, 8, 2, 7, 3, 6, 4, 5, 0}
	r := rdd.Parallelize(app, "xs", data, 4)
	less := func(a, b int) bool { return a < b }

	if got := rdd.TakeOrdered(r, 3, less); fmt.Sprint(got) != "[0 1 2]" {
		t.Fatalf("takeOrdered = %v", got)
	}
	if got := rdd.Top(r, 2, less); fmt.Sprint(got) != "[9 8]" {
		t.Fatalf("top = %v", got)
	}
	if got := rdd.TakeOrdered(r, 100, less); len(got) != 10 {
		t.Fatalf("oversized takeOrdered = %d records", len(got))
	}
	if got := rdd.TakeOrdered(r, 0, less); got != nil {
		t.Fatalf("zero takeOrdered = %v", got)
	}
}

func TestPairOpsOnEmptyAndSkewedData(t *testing.T) {
	app := newApp()
	// Empty dataset through a shuffle.
	empty := rdd.Filter(rdd.Parallelize(app, "xs", ints(10), 2), func(int) bool { return false })
	pairs := rdd.Map(empty, func(v int) rdd.Pair[int, int] { return rdd.KV(v, v) })
	if got := rdd.Collect(rdd.ReduceByKey(pairs, func(a, b int) int { return a + b }, 3)); len(got) != 0 {
		t.Fatalf("empty shuffle produced %v", got)
	}
	// Extreme skew: every record has the same key.
	var skew []rdd.Pair[string, int]
	for i := 0; i < 500; i++ {
		skew = append(skew, rdd.KV("hot", 1))
	}
	r := rdd.Parallelize(app, "skew", skew, 8)
	got := rdd.Collect(rdd.ReduceByKey(r, func(a, b int) int { return a + b }, 8))
	if len(got) != 1 || got[0].Val != 500 {
		t.Fatalf("skewed reduce = %v", got)
	}
	grouped := rdd.Collect(rdd.GroupByKey(r, 4))
	if len(grouped) != 1 || len(grouped[0].Val) != 500 {
		t.Fatalf("skewed group lost values: %d keys", len(grouped))
	}
}

func TestJoinManyToMany(t *testing.T) {
	app := newApp()
	a := rdd.Parallelize(app, "a", []rdd.Pair[int, string]{
		rdd.KV(1, "a1"), rdd.KV(1, "a2"),
	}, 2)
	b := rdd.Parallelize(app, "b", []rdd.Pair[int, int]{
		rdd.KV(1, 10), rdd.KV(1, 20), rdd.KV(1, 30),
	}, 2)
	got := rdd.Collect(rdd.Join(a, b, 2))
	if len(got) != 6 {
		t.Fatalf("2x3 join produced %d pairs, want 6", len(got))
	}
	seen := map[string]bool{}
	for _, p := range got {
		seen[fmt.Sprintf("%s/%d", p.Val.A, p.Val.B)] = true
	}
	if len(seen) != 6 {
		t.Fatalf("join produced duplicates: %v", seen)
	}
}

func TestFlatMapValuesAndUnionOfShuffled(t *testing.T) {
	app := newApp()
	a := rdd.Parallelize(app, "a", []rdd.Pair[int, int]{rdd.KV(1, 2)}, 1)
	fm := rdd.FlatMapValues(a, func(v int) []int { return []int{v, v * 10} })
	got := rdd.Collect(fm)
	if len(got) != 2 || got[0].Val != 2 || got[1].Val != 20 {
		t.Fatalf("flatMapValues = %v", got)
	}
	// Union of two shuffled datasets runs both map stages.
	r1 := rdd.ReduceByKey(a, func(x, y int) int { return x + y }, 2)
	r2 := rdd.ReduceByKey(fm, func(x, y int) int { return x + y }, 2)
	u := rdd.Union(r1, r2)
	if n := rdd.Count(u); n != 2 {
		t.Fatalf("union of shuffles count = %d, want 2", n)
	}
}

func TestSampleEdgeFractions(t *testing.T) {
	app := newApp()
	r := rdd.Parallelize(app, "xs", ints(100), 4)
	if n := rdd.Count(rdd.Sample(r, 0)); n != 0 {
		t.Fatalf("0%% sample kept %d", n)
	}
	if n := rdd.Count(rdd.Sample(r, 1)); n != 100 {
		t.Fatalf("100%% sample kept %d", n)
	}
	defer func() {
		if recover() == nil {
			t.Error("fraction > 1 did not panic")
		}
	}()
	rdd.Sample(r, 1.5)
}

func TestParallelizeEmptyAndUnionMismatchedDrivers(t *testing.T) {
	app := newApp()
	e := rdd.Parallelize(app, "empty", []int{}, 4)
	if n := rdd.Count(e); n != 0 {
		t.Fatalf("empty parallelize count = %d", n)
	}
	other := newApp()
	a := rdd.Parallelize(app, "a", []int{1}, 1)
	b := rdd.Parallelize(other, "b", []int{2}, 1)
	defer func() {
		if recover() == nil {
			t.Error("cross-application union did not panic")
		}
	}()
	rdd.Union(a, b)
}

// TestCollectSizesOnceAndKeepsNilForEmpty pins Collect's two contracts
// around its presized result: partition order survives empty partitions
// in between, and a dataset with no records at all is still nil.
func TestCollectSizesOnceAndKeepsNilForEmpty(t *testing.T) {
	app := newApp()
	r := rdd.Parallelize(app, "xs", ints(20), 5)
	if got := rdd.Collect(rdd.Filter(r, func(int) bool { return false })); got != nil {
		t.Fatalf("all-empty collect = %#v, want nil", got)
	}
	// Only partitions 1 and 3 (values 4..7 and 12..15) keep records.
	sparse := rdd.Filter(r, func(v int) bool { return v/4 == 1 || v/4 == 3 })
	got := rdd.Collect(sparse)
	want := []int{4, 5, 6, 7, 12, 13, 14, 15}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("sparse collect = %v, want %v", got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("collect result has cap %d for %d records: not sized from the partitions", cap(got), len(got))
	}
}
