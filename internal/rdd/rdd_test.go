package rdd_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/rdd"
)

func newApp() *cluster.App {
	conf := cluster.DefaultConf()
	conf.CoresPerExecutor = 4
	conf.DefaultParallelism = 8
	return cluster.New(conf)
}

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestParallelizeCollectRoundtrip(t *testing.T) {
	app := newApp()
	r := rdd.Parallelize(app, "ints", ints(100), 8)
	got := rdd.Collect(r)
	if len(got) != 100 {
		t.Fatalf("collected %d records, want 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("record %d = %d (partition order broken)", i, v)
		}
	}
}

func TestMapFilterCount(t *testing.T) {
	app := newApp()
	r := rdd.Parallelize(app, "ints", ints(1000), 0)
	doubled := rdd.Map(r, func(v int) int { return v * 2 })
	evens := rdd.Filter(doubled, func(v int) bool { return v%4 == 0 })
	if n := rdd.Count(evens); n != 500 {
		t.Fatalf("count = %d, want 500", n)
	}
}

func TestFlatMap(t *testing.T) {
	app := newApp()
	a := rdd.Parallelize(app, "a", []string{"x y", "z"}, 2)
	words := rdd.FlatMap(a, func(out []string, s string) []string {
		start := 0
		for i := 0; i <= len(s); i++ {
			if i == len(s) || s[i] == ' ' {
				if i > start {
					out = append(out, s[start:i])
				}
				start = i + 1
			}
		}
		return out
	})
	got := rdd.Collect(words)
	want := []string{"x", "y", "z"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("flatMap = %v, want %v", got, want)
	}
	if parts := len(rdd.Collect(glom(words))); parts != 2 {
		t.Fatalf("flatMap parts = %d, want 2", parts)
	}
}

func TestReduceByKeyCorrectness(t *testing.T) {
	app := newApp()
	var pairs []rdd.Pair[string, int]
	for i := 0; i < 300; i++ {
		pairs = append(pairs, rdd.KV(fmt.Sprintf("k%d", i%7), 1))
	}
	r := rdd.Parallelize(app, "pairs", pairs, 6)
	counts := rdd.ReduceByKey(r, func(a, b int) int { return a + b }, 4)
	got := map[string]int{}
	for _, p := range rdd.Collect(counts) {
		got[p.Key] += p.Val
	}
	if len(got) != 7 {
		t.Fatalf("distinct keys = %d, want 7", len(got))
	}
	for k, v := range got {
		want := 300 / 7
		if k < fmt.Sprintf("k%d", 300%7) {
			want++
		}
		if v < 42 || v > 43 {
			t.Fatalf("count[%s] = %d, want 42..43", k, v)
		}
	}
}

func TestGroupByKeyGathersAllValues(t *testing.T) {
	app := newApp()
	pairs := []rdd.Pair[int, int]{
		rdd.KV(1, 10), rdd.KV(2, 20), rdd.KV(1, 11), rdd.KV(2, 21), rdd.KV(1, 12),
	}
	r := rdd.Parallelize(app, "pairs", pairs, 3)
	grouped := rdd.GroupByKey(r, 2)
	got := map[int][]int{}
	for _, p := range rdd.Collect(grouped) {
		vs := append([]int(nil), p.Val...)
		sort.Ints(vs)
		got[p.Key] = vs
	}
	if fmt.Sprint(got[1]) != "[10 11 12]" || fmt.Sprint(got[2]) != "[20 21]" {
		t.Fatalf("grouped = %v", got)
	}
}

func TestSortByKeyGlobalOrder(t *testing.T) {
	app := newApp()
	n := 2000
	var pairs []rdd.Pair[int, string]
	for i := 0; i < n; i++ {
		k := (i * 7919) % n // deterministic permutation
		pairs = append(pairs, rdd.KV(k, "v"))
	}
	r := rdd.Parallelize(app, "pairs", pairs, 8)
	sorted := rdd.SortByKey(r, func(a, b int) bool { return a < b }, 6)
	got := rdd.Collect(sorted)
	if len(got) != n {
		t.Fatalf("sorted size = %d, want %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Key > got[i].Key {
			t.Fatalf("not globally sorted at %d: %d > %d", i, got[i-1].Key, got[i].Key)
		}
	}
}

func TestJoin(t *testing.T) {
	app := newApp()
	users := rdd.Parallelize(app, "users", []rdd.Pair[int, string]{
		rdd.KV(1, "ann"), rdd.KV(2, "bob"), rdd.KV(3, "eve"),
	}, 2)
	ages := rdd.Parallelize(app, "ages", []rdd.Pair[int, int]{
		rdd.KV(1, 30), rdd.KV(2, 40), rdd.KV(4, 99),
	}, 2)
	joined := rdd.Join(users, ages, 3)
	got := map[int]string{}
	for _, p := range rdd.Collect(joined) {
		got[p.Key] = fmt.Sprintf("%s/%d", p.Val.A, p.Val.B)
	}
	if len(got) != 2 || got[1] != "ann/30" || got[2] != "bob/40" {
		t.Fatalf("join = %v", got)
	}
}

func TestCoGroupIncludesUnmatchedKeys(t *testing.T) {
	app := newApp()
	a := rdd.Parallelize(app, "a", []rdd.Pair[int, string]{rdd.KV(1, "x")}, 1)
	b := rdd.Parallelize(app, "b", []rdd.Pair[int, int]{rdd.KV(2, 9)}, 1)
	cg := rdd.CoGroup(a, b, 2)
	got := map[int]rdd.CoGrouped[string, int]{}
	for _, p := range rdd.Collect(cg) {
		got[p.Key] = p.Val
	}
	if len(got) != 2 {
		t.Fatalf("cogroup keys = %d, want 2", len(got))
	}
	if len(got[1].Left) != 1 || len(got[1].Right) != 0 {
		t.Fatalf("key 1 groups = %+v", got[1])
	}
	if len(got[2].Left) != 0 || len(got[2].Right) != 1 {
		t.Fatalf("key 2 groups = %+v", got[2])
	}
}

func TestRepartitionPreservesRecords(t *testing.T) {
	app := newApp()
	r := rdd.Parallelize(app, "ints", ints(500), 4)
	rep := rdd.Repartition(r, 10)
	if parts := len(rdd.Collect(glom(rep))); parts != 10 {
		t.Fatalf("repartition parts = %d, want 10", parts)
	}
	got := rdd.Collect(rep)
	sort.Ints(got)
	for i, v := range got {
		if v != i {
			t.Fatalf("records lost/dup at %d: %d", i, v)
		}
	}
}

func TestMapValuesKeysValues(t *testing.T) {
	app := newApp()
	pairs := []rdd.Pair[int, int]{rdd.KV(1, 2), rdd.KV(3, 4)}
	r := rdd.Parallelize(app, "p", pairs, 1)
	mv := rdd.MapValues(r, func(v int) int { return v * 10 })
	if got := rdd.Collect(rdd.Map(mv, func(p rdd.Pair[int, int]) int { return p.Val })); fmt.Sprint(got) != "[20 40]" {
		t.Fatalf("mapValues = %v", got)
	}
	if got := rdd.Collect(rdd.Map(r, func(p rdd.Pair[int, int]) int { return p.Key })); fmt.Sprint(got) != "[1 3]" {
		t.Fatalf("keys = %v", got)
	}
}

func TestCacheAvoidsRecompute(t *testing.T) {
	app := newApp()
	var computes atomic.Int64 // tasks of a stage may run in parallel
	src := rdd.Parallelize(app, "ints", ints(64), 4)
	counted := rdd.Map(src, func(v int) int { computes.Add(1); return v })
	cached := rdd.Cache(counted)

	rdd.Count(cached)
	after1 := computes.Load()
	rdd.Count(cached)
	if computes.Load() != after1 {
		t.Fatalf("cached RDD recomputed: %d -> %d map calls", after1, computes.Load())
	}
	m := app.Metrics()
	if m.CacheHits == 0 {
		t.Error("no cache hits recorded")
	}
}

func TestCacheDoubleWrapIsNoop(t *testing.T) {
	app := newApp()
	r := rdd.Cache(rdd.Parallelize(app, "ints", ints(10), 2))
	if rdd.Cache(r) != r {
		t.Error("caching a cached RDD must return it unchanged")
	}
}

func TestSampleDeterministicAndBounded(t *testing.T) {
	app1 := newApp()
	r1 := rdd.Sample(rdd.Parallelize(app1, "ints", ints(1000), 4), 0.3)
	n1 := rdd.Count(r1)
	app2 := newApp()
	r2 := rdd.Sample(rdd.Parallelize(app2, "ints", ints(1000), 4), 0.3)
	n2 := rdd.Count(r2)
	if n1 != n2 {
		t.Fatalf("sampling not deterministic: %d vs %d", n1, n2)
	}
	if n1 < 200 || n1 > 400 {
		t.Fatalf("sample size %d far from 300", n1)
	}
}

func TestShuffleReuseAcrossJobs(t *testing.T) {
	app := newApp()
	pairs := rdd.Parallelize(app, "p", []rdd.Pair[int, int]{rdd.KV(1, 1), rdd.KV(2, 2)}, 2)
	red := rdd.ReduceByKey(pairs, func(a, b int) int { return a + b }, 2)
	rdd.Count(red)
	m1 := app.Metrics()
	rdd.Count(red) // second job reuses the materialized shuffle
	m2 := app.Metrics()
	if m2.Stages-m1.Stages != 1 {
		t.Fatalf("second count ran %d stages, want 1 (map stage reused)", m2.Stages-m1.Stages)
	}
}

func TestDeterministicVirtualTime(t *testing.T) {
	run := func() int64 {
		app := newApp()
		r := rdd.Parallelize(app, "ints", ints(2000), 8)
		pairs := rdd.Map(r, func(v int) rdd.Pair[int, int] { return rdd.KV(v%50, v) })
		rdd.Count(rdd.ReduceByKey(pairs, func(a, b int) int { return a + b }, 8))
		return int64(app.Elapsed())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("virtual time not deterministic: %d vs %d", a, b)
	}
}

func TestEngineTierSensitivity(t *testing.T) {
	// The same shuffle-heavy workload must take longer the more distant
	// the tier — the engine-level version of the paper's core result.
	run := func(tier memsim.TierID) int64 {
		conf := cluster.DefaultConf()
		conf.CoresPerExecutor = 4
		conf.DefaultParallelism = 8
		conf.Binding = numa.BindingForTier(tier)
		app := cluster.New(conf)
		r := rdd.Parallelize(app, "ints", ints(5000), 8)
		pairs := rdd.Map(r, func(v int) rdd.Pair[int, int] { return rdd.KV(v%97, v) })
		rdd.Count(rdd.GroupByKey(pairs, 8))
		return int64(app.Elapsed())
	}
	t0 := run(memsim.Tier0)
	t2 := run(memsim.Tier2)
	t3 := run(memsim.Tier3)
	if !(t0 < t2 && t2 < t3) {
		t.Fatalf("tier times not ordered: T0=%d T2=%d T3=%d", t0, t2, t3)
	}
}

func TestInvalidPartitionPanics(t *testing.T) {
	app := newApp()
	r := rdd.Parallelize(app, "ints", ints(10), 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range partition did not panic")
		}
	}()
	r.Compute(nil, 5)
}

// The dataset's rendering names it in the out-of-range panic.
func TestBaseString(t *testing.T) {
	app := newApp()
	r := rdd.Parallelize(app, "ints", ints(10), 2)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, " ints, 2 parts]") {
			t.Fatalf("base metadata wrong: %q", msg)
		}
	}()
	r.Compute(nil, 5)
}

func TestCacheEvictionRecomputes(t *testing.T) {
	// A tiny block-manager capacity forces evictions; results must stay
	// correct, evictions must be observed, and recomputation must happen.
	conf := cluster.DefaultConf()
	conf.CoresPerExecutor = 4
	conf.DefaultParallelism = 8
	conf.CacheCapacity = 600 // two ~280B partitions fit; the rest evict
	app := cluster.New(conf)

	var computes atomic.Int64 // tasks of a stage may run in parallel
	src := rdd.Parallelize(app, "ints", ints(256), 8)
	counted := rdd.Map(src, func(v int) int { computes.Add(1); return v })
	cached := rdd.Cache(counted)

	if n := rdd.Count(cached); n != 256 {
		t.Fatalf("count = %d", n)
	}
	first := computes.Load()
	if n := rdd.Count(cached); n != 256 {
		t.Fatalf("recount = %d", n)
	}
	if computes.Load() == first {
		t.Fatal("no recomputation despite a cache too small to hold the data")
	}
	var evictions int64
	for _, ex := range app.Pool().Executors {
		_, _, ev := ex.Blocks.Stats()
		evictions += ev
	}
	if evictions == 0 {
		t.Fatal("no evictions recorded with a 200-byte cache")
	}
}

// Property: shuffling never loses or duplicates records, for arbitrary
// inputs and partition counts.
func TestShuffleConservationProperty(t *testing.T) {
	prop := func(raw []uint16, partsRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		parts := int(partsRaw%7) + 1
		app := newApp()
		data := make([]int, len(raw))
		sum := 0
		for i, v := range raw {
			data[i] = int(v)
			sum += int(v)
		}
		r := rdd.Parallelize(app, "xs", data, 4)
		pairs := rdd.Map(r, func(v int) rdd.Pair[int, int] { return rdd.KV(v%13, v) })
		grouped := rdd.GroupByKey(pairs, parts)
		gotSum, gotN := 0, 0
		for _, p := range rdd.Collect(grouped) {
			for _, v := range p.Val {
				gotSum += v
				gotN++
			}
		}
		return gotSum == sum && gotN == len(raw)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: sortByKey emits exactly the input multiset in globally sorted
// order, for arbitrary inputs.
func TestSortPermutationProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		app := newApp()
		pairs := make([]rdd.Pair[int, int], len(raw))
		for i, v := range raw {
			pairs[i] = rdd.KV(int(v), i)
		}
		r := rdd.Parallelize(app, "ps", pairs, 4)
		got := rdd.Collect(rdd.SortByKey(r, func(a, b int) bool { return a < b }, 4))
		if len(got) != len(raw) {
			return false
		}
		counts := map[int]int{}
		for _, v := range raw {
			counts[int(v)]++
		}
		prev := -1
		for _, p := range got {
			if p.Key < prev {
				return false
			}
			prev = p.Key
			counts[p.Key]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSortByKeyOrderedMatchesSortByKey pins the ordered sort to the
// generic one end to end: sampling, range bounds, shuffle and
// per-partition sort give the same records in the same order, on string
// keys with shared prefixes, zero padding, high bytes and duplicates.
func TestSortByKeyOrderedMatchesSortByKey(t *testing.T) {
	prop := func(seed int64, size uint16) bool {
		r := rand.New(rand.NewSource(seed))
		pairs := make([]rdd.Pair[string, int], int(size)%3000)
		for i := range pairs {
			key := []byte("keyshare")[:r.Intn(9)]
			for j := r.Intn(5); j > 0; j-- {
				key = append(key, "\x00a\x80"[r.Intn(3)])
			}
			pairs[i] = rdd.KV(string(key), i)
		}
		for _, parts := range []int{1, 4, 7} {
			src := rdd.Parallelize(newApp(), "pairs", pairs, 5)
			want := rdd.Collect(rdd.SortByKey(src, func(a, b string) bool { return a < b }, parts))
			got := rdd.Collect(rdd.SortByKeyOrdered(src, parts))
			if !reflect.DeepEqual(got, want) {
				t.Logf("seed %d, %d records, %d partitions: ordered sort differs", seed, len(pairs), parts)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
