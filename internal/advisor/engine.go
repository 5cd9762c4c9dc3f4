package advisor

import (
	"context"
	"fmt"

	"repro/internal/executor"
	"repro/internal/hibench"
	"repro/internal/memsim"
	"repro/internal/par"
	"repro/internal/telemetry"
)

// Options configures an Engine.
type Options struct {
	// CacheDir roots the persistent result cache; empty disables
	// persistence (the engine still deduplicates in-flight queries).
	CacheDir string
	// Runner evaluates one cell on a miss; nil selects hibench.RunQuery.
	Runner hibench.QueryRunner
	// Registry receives the engine's counters; nil runs unobserved.
	Registry *telemetry.Registry
}

// Engine is the service core: one evaluation path that normalizes a
// query, consults the persistent cache, coalesces concurrent identical
// misses into a single simulation and persists what it computed. The
// what-if, placement and tier-advisor harnesses plug into it through
// the hibench.QueryRunner seam (see RunQuery), and cmd/advisord serves
// it over HTTP.
type Engine struct {
	hash    string
	cache   *Cache
	runner  hibench.QueryRunner
	flights flightGroup[cell]
	metrics metrics
}

// NewEngine builds an engine. The engine hash is computed once from the
// configuration tables; see computeEngineHash for the invalidation
// contract.
func NewEngine(opts Options) *Engine {
	e := &Engine{
		hash:   computeEngineHash(),
		runner: opts.Runner,
		metrics: metrics{
			reg:     opts.Registry,
			latency: &telemetry.Distribution{},
		},
	}
	if e.runner == nil {
		e.runner = hibench.RunQuery
	}
	if opts.CacheDir != "" {
		e.cache = OpenCache(opts.CacheDir, e.hash)
	}
	return e
}

// EngineHash returns the cache-invalidation fingerprint this engine
// computes results under.
func (e *Engine) EngineHash() string { return e.hash }

// Registry returns the engine's counter registry (may be nil).
func (e *Engine) Registry() *telemetry.Registry { return e.metrics.reg }

// LatencySummary summarizes the HTTP request latencies observed so far.
func (e *Engine) LatencySummary() telemetry.DistSummary {
	return e.metrics.latency.Snapshot()
}

// Eval answers one query: normalize, then cache -> singleflight ->
// simulate -> persist. Identical concurrent queries cost one simulation;
// identical repeated queries cost one disk read. The Result is decoded
// from the cell's record on a miss as on a hit, so a caller cannot see
// one that differs cold from warm.
func (e *Engine) Eval(q hibench.Query) (Result, error) {
	entry, err := e.evalCell(q)
	if err != nil {
		return Result{}, err
	}
	return entry.result()
}

// evalCell is the one evaluation path. What a flight carries — to its
// leader, to the callers that shared it, and to the cache — is the cell:
// the record Eval decodes and the body /v1/eval writes.
func (e *Engine) evalCell(q hibench.Query) (cell, error) {
	nq, err := q.Normalize()
	if err != nil {
		return cell{}, err
	}
	key := nq.Key()
	entry, shared, err := e.flights.Do(key, func() (cell, error) {
		if cached, ok := e.cache.lookup(key); ok {
			e.metrics.count(CounterCacheHit)
			return cached, nil
		}
		e.metrics.count(CounterCacheMiss)
		run, err := e.runner(nq)
		if err != nil {
			return cell{}, err
		}
		e.metrics.count(CounterSimRuns)
		entry, err := newCell(resultOf(nq, run))
		if err != nil {
			e.metrics.count(CounterStoreError)
			return cell{}, err
		}
		if err := e.cache.store(key, entry); err != nil {
			// A failed store only shrinks the cache; the computed
			// result is still good, so count and continue.
			e.metrics.count(CounterStoreError)
		}
		return entry, nil
	})
	if shared {
		e.metrics.count(CounterDedupShare)
	}
	return entry, err
}

// RunQuery is Eval in hibench.QueryRunner shape: the adapter that turns
// the experiment harnesses in internal/core into thin clients of the
// engine.
func (e *Engine) RunQuery(q hibench.Query) (hibench.RunResult, error) {
	res, err := e.Eval(q)
	if err != nil {
		return hibench.RunResult{}, err
	}
	return res.RunResult()
}

// EvalBatch answers a query list by fanning it through par.Do over at
// most workers goroutines (0 means 1). Results are merged in request order
// — position i of the output always answers position i of the input — so
// the response bytes are identical at any worker count. The first error
// (by request position, not completion time) fails the batch; a panic out
// of a query's evaluation arrives on the caller as a *par.Panic.
func (e *Engine) EvalBatch(qs []hibench.Query, workers int) ([]Result, error) {
	return e.evalBatch(context.Background(), qs, workers)
}

// evalBatch is EvalBatch for a caller that may give up: once ctx is done,
// cells not yet started are skipped and the batch fails with ctx's error.
// A simulation already running finishes and is stored — it is somebody's
// future hit.
func (e *Engine) evalBatch(ctx context.Context, qs []hibench.Query, workers int) ([]Result, error) {
	results := make([]Result, len(qs))
	errs := make([]error, len(qs))
	par.Do(len(qs), max(workers, 1), func(i int) {
		if errs[i] = ctx.Err(); errs[i] == nil {
			results[i], errs[i] = e.Eval(qs[i])
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("advisor: batch query %d (%s): %w", i, qs[i], err)
		}
	}
	return results, nil
}

// Recommendation is the answer to "where should this workload live if I
// must push at least minNVMShare of its media traffic to DCPM": every
// candidate placement's measured cell, plus the fastest one that meets
// the constraint.
type Recommendation struct {
	Workload    string   `json:"workload"`
	Size        string   `json:"size"`
	Seed        int64    `json:"seed"`
	MinNVMShare float64  `json:"min_nvm_share"`
	Candidates  []Result `json:"candidates"`
	// Best indexes Candidates; the fastest eligible placement.
	Best int `json:"best"`
}

// Recommend evaluates the candidate placement set — every membind tier
// plus every standard placement — and picks the fastest one whose NVM
// share meets the floor. All candidate cells go through Eval, so a
// repeated recommendation is pure cache hits; ctx stops it as it stops a
// batch.
func (e *Engine) Recommend(ctx context.Context, workload, size string, seed int64, minNVMShare float64) (Recommendation, error) {
	var qs []hibench.Query
	for tier := 0; tier < int(memsim.NumTiers); tier++ {
		qs = append(qs, hibench.Query{
			Workload: workload, Size: size,
			Placement: fmt.Sprintf("tier:%d", tier), Seed: seed,
		})
	}
	for _, np := range executor.StandardPlacements() {
		qs = append(qs, hibench.Query{
			Workload: workload, Size: size,
			Placement: np.Name, Seed: seed,
		})
	}
	results, err := e.evalBatch(ctx, qs, len(qs))
	if err != nil {
		return Recommendation{}, err
	}
	rec := Recommendation{
		Workload: workload, Size: size,
		Seed: seed, MinNVMShare: minNVMShare,
		Candidates: results,
		Best:       -1,
	}
	if rec.Seed == 0 {
		rec.Seed = 1
	}
	for i, res := range results {
		if res.NVMShare+1e-9 < minNVMShare {
			continue
		}
		if rec.Best < 0 || res.DurationNS < results[rec.Best].DurationNS {
			rec.Best = i
		}
	}
	if rec.Best < 0 {
		return Recommendation{}, fmt.Errorf("advisor: no candidate placement reaches NVM share %.2f for %s/%s", minNVMShare, workload, size)
	}
	return rec, nil
}
