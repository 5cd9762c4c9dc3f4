package advisor

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/executor"
	"repro/internal/hibench"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// fabricate builds a deterministic fake run record for a query: distinct
// cells get distinct durations, and NVM share depends on the placement
// (tier:0 keeps everything in DRAM).
func fabricate(q hibench.Query) hibench.RunResult {
	h := fnv.New64a()
	h.Write([]byte(q.Key()))
	var res hibench.RunResult
	res.Duration = sim.Time(1_000_000 + h.Sum64()%1_000_000)
	res.Metrics.MediaReads = 1000
	res.Metrics.MediaWrites = 500
	if q.Placement != "tier:0" && q.Placement != "tier:1" && q.Placement != "all-DRAM" {
		res.NVMCounters.MediaReads = 600
		res.NVMCounters.MediaWrites = 300
	}
	return res
}

// stubEngine builds an engine over a counting fake runner. A non-nil gate
// makes every simulated call block until the gate closes.
func stubEngine(t *testing.T, cacheDir string, calls *atomic.Int64, gate chan struct{}) *Engine {
	t.Helper()
	return NewEngine(Options{
		CacheDir: cacheDir,
		Registry: telemetry.NewRegistry(),
		Runner: func(q hibench.Query) (hibench.RunResult, error) {
			calls.Add(1)
			if gate != nil {
				<-gate
			}
			return fabricate(q), nil
		},
	})
}

func TestEngineEvalCachesAcrossEnginesAndCalls(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	e := stubEngine(t, dir, &calls, nil)
	q := hibench.Query{Workload: "pagerank", Size: "tiny", Placement: "tier:2"}

	first, err := e.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("cold eval simulated %d times; want 1", calls.Load())
	}
	second, err := e.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("warm eval re-simulated (calls=%d)", calls.Load())
	}
	if first != second {
		t.Fatalf("warm result differs:\n got %+v\nwant %+v", second, first)
	}
	if hits := e.Registry().Get(CounterCacheHit); hits != 1 {
		t.Fatalf("cache hits = %d; want 1", hits)
	}

	// A new engine process over the same directory answers from disk.
	var calls2 atomic.Int64
	e2 := stubEngine(t, dir, &calls2, nil)
	third, err := e2.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if calls2.Load() != 0 {
		t.Fatalf("fresh engine re-simulated a persisted cell (calls=%d)", calls2.Load())
	}
	if third != first {
		t.Fatalf("persisted result differs:\n got %+v\nwant %+v", third, first)
	}
}

func TestEngineEvalNormalizesBeforeCaching(t *testing.T) {
	var calls atomic.Int64
	e := stubEngine(t, t.TempDir(), &calls, nil)
	// Shorthand spellings of the same cell must share one cache slot.
	if _, err := e.Eval(hibench.Query{Workload: "pagerank", Size: "tiny"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Eval(hibench.Query{Workload: "pagerank", Size: "tiny", Placement: "tier:0", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("equivalent spellings simulated %d times; want 1", calls.Load())
	}
}

func TestEngineEvalRejectsInvalidQueries(t *testing.T) {
	var calls atomic.Int64
	e := stubEngine(t, "", &calls, nil)
	for _, q := range []hibench.Query{
		{},
		{Workload: "no-such-workload", Size: "tiny"},
		{Workload: "pagerank", Size: "enormous"},
		{Workload: "pagerank", Size: "tiny", Placement: "tier:9"},
		{Workload: "pagerank", Size: "tiny", Policy: "no-such-policy"},
	} {
		if _, err := e.Eval(q); err == nil {
			t.Errorf("Eval(%+v) accepted an invalid query", q)
		}
	}
	if calls.Load() != 0 {
		t.Fatalf("invalid queries reached the runner %d times", calls.Load())
	}
}

// TestEngineConcurrentIdenticalQueriesSimulateOnce is the dedup contract
// under -race: M concurrent identical queries cost exactly one simulation
// — concurrent callers join the in-flight evaluation, late callers hit
// the persisted entry.
func TestEngineConcurrentIdenticalQueriesSimulateOnce(t *testing.T) {
	const m = 24
	var calls atomic.Int64
	gate := make(chan struct{})
	e := stubEngine(t, t.TempDir(), &calls, gate)
	q := hibench.Query{Workload: "lda", Size: "tiny", Placement: "tier:2"}

	var wg sync.WaitGroup
	results := make([]Result, m)
	errs := make([]error, m)
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Eval(q)
		}(i)
	}
	close(gate)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d concurrent identical queries simulated %d times; want exactly 1", m, got)
	}
	for i := 1; i < m; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d saw a different result", i)
		}
	}
	reg := e.Registry()
	if total := reg.Get(CounterSimRuns); total != 1 {
		t.Fatalf("sim-run counter = %d; want 1", total)
	}
	// Every non-leading caller is accounted as a dedup share or a cache
	// hit; none slipped through to the runner.
	if shares, hits := reg.Get(CounterDedupShare), reg.Get(CounterCacheHit); shares+hits != m-1 {
		t.Fatalf("shares (%d) + hits (%d) != %d", shares, hits, m-1)
	}
}

func TestEngineBatchDeterministicAcrossWorkerCounts(t *testing.T) {
	var qs []hibench.Query
	for _, w := range []string{"pagerank", "lda", "sort"} {
		for _, place := range []string{"tier:0", "tier:2", "all-NVM"} {
			qs = append(qs, hibench.Query{Workload: w, Size: "tiny", Placement: place})
		}
	}
	// Duplicates inside one batch must also be fine.
	qs = append(qs, qs[0], qs[4])

	var baseline []byte
	for _, workers := range []int{1, 3, 8, 100} {
		var calls atomic.Int64
		e := stubEngine(t, t.TempDir(), &calls, nil)
		results, err := e.EvalBatch(qs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(results) != len(qs) {
			t.Fatalf("workers=%d: %d results for %d queries", workers, len(results), len(qs))
		}
		for i, res := range results {
			nq, _ := qs[i].Normalize()
			if res.Query != nq {
				t.Fatalf("workers=%d: result %d answers %+v, not %+v", workers, i, res.Query, nq)
			}
		}
		data, err := json.Marshal(results)
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = data
		} else if string(data) != string(baseline) {
			t.Fatalf("workers=%d: batch response bytes differ from workers=1", workers)
		}
	}
}

func TestEngineBatchReportsFirstErrorByPosition(t *testing.T) {
	e := NewEngine(Options{Runner: func(q hibench.Query) (hibench.RunResult, error) {
		return fabricate(q), nil
	}})
	qs := []hibench.Query{
		{Workload: "pagerank", Size: "enormous"}, // invalid: position 0
		{Workload: "pagerank", Size: "tiny"},
		{Workload: "bogus", Size: "tiny"}, // invalid: position 2
	}
	_, err := e.EvalBatch(qs, 4)
	if err == nil {
		t.Fatal("batch with invalid queries succeeded")
	}
	if !strings.Contains(err.Error(), "batch query 0") {
		t.Fatalf("error does not name the first failing position: %v", err)
	}
}

func TestEngineBatchEmpty(t *testing.T) {
	var calls atomic.Int64
	e := stubEngine(t, "", &calls, nil)
	results, err := e.EvalBatch(nil, 8)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty batch: results=%v err=%v", results, err)
	}
}

func TestEngineHashIsStableAndShaped(t *testing.T) {
	a, b := computeEngineHash(), computeEngineHash()
	if a != b {
		t.Fatalf("engine hash not deterministic: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("engine hash %q is not a sha256 hex digest", a)
	}
	if NewEngine(Options{}).EngineHash() != a {
		t.Fatal("engine does not expose the computed hash")
	}
}

// A cost-model edit changes every cell's virtual time, so it must orphan
// the cache: the digested text renders the default cost model with %+v,
// every field by name and value, so perturbing any constant moves the hash.
func TestEngineHashCoversCostModel(t *testing.T) {
	var fp strings.Builder
	writeFingerprint(&fp)
	if want := fmt.Sprintf("cost-model=%+v\n", executor.DefaultCostModel()); !strings.Contains(fp.String(), want) {
		t.Errorf("the engine fingerprint does not hold %q", want)
	}
	if sum := sha256.Sum256([]byte(fp.String())); hex.EncodeToString(sum[:]) != computeEngineHash() {
		t.Error("the engine hash is not the digest of the fingerprint")
	}
}

// Result's shape is part of the fingerprint, so a stored record or body
// cannot outlive the struct it was rendered from: typeShape names every
// leaf by path, kind and json tag, and two types that differ by one tag
// have different shapes.
func TestEngineHashCoversResultShape(t *testing.T) {
	type inner struct {
		Reads int64 `json:"reads"`
	}
	type before struct {
		Name  string  `json:"name"`
		Share float64 `json:"share"`
		In    inner   `json:"in"`
	}
	type after struct {
		Name  string  `json:"name"`
		Share float64 `json:"nvm_share"`
		In    inner   `json:"in"`
	}
	a, b := typeShape(reflect.TypeOf(before{})), typeShape(reflect.TypeOf(after{}))
	if a == b {
		t.Errorf("a renamed tag left the shape unchanged: %s", a)
	}
	if a != typeShape(reflect.TypeOf(before{})) {
		t.Error("typeShape is not a function of the type")
	}
	for _, want := range []string{"Name string `name`;", "Share float64 `share`;", "In.Reads int64 `reads`;"} {
		if !strings.Contains(a, want) {
			t.Errorf("shape %q does not hold %q", a, want)
		}
	}
	shape := typeShape(reflect.TypeOf(Result{}))
	if !strings.Contains(shape, "NVMCounters.MediaWriteBytes int64 ``;") || !strings.Contains(shape, "Query.Seed int64 `seed,omitempty`;") {
		t.Errorf("Result's shape misses a nested leaf: %s", shape)
	}
	var fp strings.Builder
	writeFingerprint(&fp)
	sum := sha256.Sum256([]byte(shape))
	if want := "result-shape=" + hex.EncodeToString(sum[:]) + "\n"; !strings.Contains(fp.String(), want) {
		t.Errorf("the engine fingerprint does not hold the digest of Result's shape")
	}
}

func TestEngineRecommend(t *testing.T) {
	// Durations by placement: DRAM fastest, mixed placements in between,
	// all-NVM slowest. NVM share comes from fabricate: ~0.6 for anything
	// that touches Tier 2, 0 for DRAM-only placements.
	durations := map[string]sim.Time{
		"tier:0": 100, "tier:1": 120, "tier:2": 300, "tier:3": 340,
		"all-DRAM": 105, "all-NVM": 400,
		"heap-DRAM/shuffle-NVM": 180, "heap-NVM/shuffle-DRAM": 260, "cache-NVM": 150,
	}
	e := NewEngine(Options{Runner: func(q hibench.Query) (hibench.RunResult, error) {
		d, ok := durations[q.Placement]
		if !ok {
			return hibench.RunResult{}, fmt.Errorf("unexpected placement %q", q.Placement)
		}
		res := fabricate(q)
		res.Duration = d
		return res, nil
	}})

	// Unconstrained: the fastest cell wins outright.
	rec, err := e.Recommend(context.Background(), "pagerank", "tiny", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Candidates[rec.Best].Query.Placement; got != "tier:0" {
		t.Fatalf("unconstrained recommendation = %q; want tier:0", got)
	}

	// Requiring half the traffic on NVM excludes the DRAM-only cells;
	// cache-NVM is the fastest that qualifies.
	rec, err = e.Recommend(context.Background(), "pagerank", "tiny", 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Candidates[rec.Best].Query.Placement; got != "cache-NVM" {
		t.Fatalf("constrained recommendation = %q; want cache-NVM", got)
	}
	if len(rec.Candidates) != len(durations) {
		t.Fatalf("recommendation evaluated %d candidates; want %d", len(rec.Candidates), len(durations))
	}

	// An unreachable constraint is an error, not a silent fallback.
	if _, err := e.Recommend(context.Background(), "pagerank", "tiny", 1, 0.99); err == nil {
		t.Fatal("impossible NVM-share constraint did not error")
	}
}

// TestEngineRealRunnerWarmStartIsSimFree exercises the full path with the
// real simulator once: a second engine over the same cache directory must
// answer without simulating and produce identical bytes.
func TestEngineRealRunnerWarmStartIsSimFree(t *testing.T) {
	dir := t.TempDir()
	q := hibench.Query{Workload: "sort", Size: "tiny", Placement: "tier:2", Policy: "cxl-dram"}

	cold := NewEngine(Options{CacheDir: dir, Registry: telemetry.NewRegistry()})
	first, err := cold.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if sims := cold.Registry().Get(CounterSimRuns); sims != 1 {
		t.Fatalf("cold engine simulated %d cells; want 1", sims)
	}

	warm := NewEngine(Options{CacheDir: dir, Registry: telemetry.NewRegistry()})
	second, err := warm.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if sims := warm.Registry().Get(CounterSimRuns); sims != 0 {
		t.Fatalf("warm engine simulated %d cells; want 0", sims)
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if string(a) != string(b) {
		t.Fatalf("warm result bytes differ:\n cold %s\n warm %s", a, b)
	}
}
