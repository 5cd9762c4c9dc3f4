package rdd_test

import (
	"fmt"
	"testing"

	"repro/internal/executor"
	"repro/internal/rdd"
)

// glom turns each partition into a single slice record, like Spark's glom.
func glom[T any](r *rdd.RDD[T]) *rdd.RDD[[]T] {
	return rdd.MapPartitions(r, func(_ *executor.TaskContext, _ int, in []T) [][]T { return [][]T{in} })
}

func TestGlom(t *testing.T) {
	app := newApp()
	r := rdd.Parallelize(app, "xs", ints(10), 5)
	g := rdd.Collect(glom(r))
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

func TestParallelizeEmpty(t *testing.T) {
	app := newApp()
	e := rdd.Parallelize(app, "empty", []int{}, 4)
	if n := rdd.Count(e); n != 0 {
		t.Fatalf("empty parallelize count = %d", n)
	}
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
