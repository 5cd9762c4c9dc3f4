package workloads

import (
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/rdd"
)

// The columnar chunk shuffle replaced the row-at-a-time segment path:
// map tasks scatter records into per-reduce chunk columns and reduce
// tasks iterate the columns by reference. These properties prove the
// chunked sort/aggregate/cogroup operators compute exactly the row
// semantics on the workload record types (string, int and struct keys),
// for arbitrary quick-generated inputs.

func parityApp() *cluster.App {
	conf := cluster.DefaultConf()
	conf.CoresPerExecutor = 8
	conf.DefaultParallelism = 4
	conf.TaskParallelism = 4
	return cluster.New(conf)
}

func parityConfig(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount}
}

// TestChunkedSortMatchesRowSemantics: a total sort over chunked shuffle
// must emit a permutation of the input with nondecreasing keys.
func TestChunkedSortMatchesRowSemantics(t *testing.T) {
	f := func(recs []TextRecord) bool {
		app := parityApp()
		keyed := rdd.Map(rdd.Parallelize(app, "sort-in", recs, 0), func(tr TextRecord) rdd.Pair[string, TextRecord] { return rdd.KV(tr.Key, tr) })
		got := rdd.Collect(rdd.SortByKey(keyed, func(a, b string) bool { return a < b }, 0))
		if len(got) != len(recs) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].Key < got[i-1].Key {
				return false
			}
		}
		counts := make(map[TextRecord]int, len(recs))
		for _, r := range recs {
			counts[r]++
		}
		for _, p := range got {
			counts[p.Val]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, parityConfig(20)); err != nil {
		t.Errorf("chunked sort diverges from row semantics: %v", err)
	}
}

// TestChunkedAggregateMatchesRowSemantics: ReduceByKey over chunks must
// produce exactly the per-key sums a plain map computes — for the bayes
// workload's struct keys and the text workloads' string keys.
func TestChunkedAggregateMatchesRowSemantics(t *testing.T) {
	structKeys := func(recs []rdd.Pair[ClassTok, int64]) bool {
		app := parityApp()
		got := rdd.Collect(rdd.ReduceByKey(rdd.Parallelize(app, "agg-in", recs, 0),
			func(a, b int64) int64 { return a + b }, 0))
		want := make(map[ClassTok]int64, len(recs))
		for _, p := range recs {
			want[p.Key] += p.Val
		}
		if len(got) != len(want) {
			return false
		}
		for _, p := range got {
			if w, ok := want[p.Key]; !ok || w != p.Val {
				return false
			}
		}
		return true
	}
	stringKeys := func(recs []rdd.Pair[string, int64]) bool {
		app := parityApp()
		got := rdd.Collect(rdd.ReduceByKey(rdd.Parallelize(app, "agg-in", recs, 0),
			func(a, b int64) int64 { return a + b }, 0))
		want := make(map[string]int64, len(recs))
		for _, p := range recs {
			want[p.Key] += p.Val
		}
		if len(got) != len(want) {
			return false
		}
		for _, p := range got {
			if w, ok := want[p.Key]; !ok || w != p.Val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(structKeys, parityConfig(15)); err != nil {
		t.Errorf("chunked aggregate (ClassTok keys) diverges: %v", err)
	}
	if err := quick.Check(stringKeys, parityConfig(15)); err != nil {
		t.Errorf("chunked aggregate (string keys) diverges: %v", err)
	}
}

// TestChunkedCoGroupMatchesRowSemantics: cogrouping two chunked shuffles
// must produce, per key, exactly the multiset of left and right values
// the reference maps hold — with int keys and the ALS workload's Rating
// values on the left side.
func TestChunkedCoGroupMatchesRowSemantics(t *testing.T) {
	f := func(left []rdd.Pair[int, Rating], right []rdd.Pair[int, int64]) bool {
		app := parityApp()
		got := rdd.Collect(rdd.CoGroup(
			rdd.Parallelize(app, "cg-left", left, 0),
			rdd.Parallelize(app, "cg-right", right, 0), 0))

		wantL := make(map[int]map[Rating]int)
		for _, p := range left {
			if wantL[p.Key] == nil {
				wantL[p.Key] = make(map[Rating]int)
			}
			wantL[p.Key][p.Val]++
		}
		wantR := make(map[int]map[int64]int)
		for _, p := range right {
			if wantR[p.Key] == nil {
				wantR[p.Key] = make(map[int64]int)
			}
			wantR[p.Key][p.Val]++
		}
		keys := make(map[int]bool)
		for k := range wantL {
			keys[k] = true
		}
		for k := range wantR {
			keys[k] = true
		}
		if len(got) != len(keys) {
			return false
		}
		for _, p := range got {
			if !keys[p.Key] {
				return false // duplicate or phantom key
			}
			delete(keys, p.Key)
			if len(p.Val.Left) != lenOf(wantL[p.Key]) || len(p.Val.Right) != lenOf(wantR[p.Key]) {
				return false
			}
			for _, v := range p.Val.Left {
				wantL[p.Key][v]--
			}
			for _, c := range wantL[p.Key] {
				if c != 0 {
					return false
				}
			}
			for _, w := range p.Val.Right {
				wantR[p.Key][w]--
			}
			for _, c := range wantR[p.Key] {
				if c != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, parityConfig(10)); err != nil {
		t.Errorf("chunked cogroup diverges from row semantics: %v", err)
	}
}

func lenOf[K comparable](m map[K]int) int {
	n := 0
	for _, c := range m {
		n += c
	}
	return n
}
