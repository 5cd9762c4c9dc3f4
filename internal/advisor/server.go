package advisor

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"

	"repro/internal/hibench"
	"repro/internal/par"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// NewServer wraps an engine in the advisord HTTP API:
//
//	POST /v1/eval       one query cell            -> Result
//	POST /v1/batch      query list + worker count -> {results}
//	POST /v1/sweep      grid spec (workloads x sizes x placements x
//	                    policies x seeds)         -> {queries, results}
//	POST /v1/recommend  placement constraint      -> Recommendation
//	GET  /v1/stats      engine hash, counters, latency quantiles
//	GET  /v1/healthz    liveness
//
// Every response except /v1/stats is a pure function of the request and
// the engine configuration — wall-clock latency is observed by the
// middleware but never serialized into result bodies, which is what lets
// the tests assert byte-identical responses across runs and worker counts.
func NewServer(e *Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/eval", func(w http.ResponseWriter, r *http.Request) {
		handleEval(e, w, r)
	})
	mux.HandleFunc("/v1/batch", func(w http.ResponseWriter, r *http.Request) {
		handleBatch(e, w, r)
	})
	mux.HandleFunc("/v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		handleSweep(e, w, r)
	})
	mux.HandleFunc("/v1/recommend", func(w http.ResponseWriter, r *http.Request) {
		handleRecommend(e, w, r)
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		handleStats(e, w, r)
	})
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(e, w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(e, w, map[string]string{"status": "ok"})
	})
	return withMetrics(e, mux)
}

// withMetrics counts and times every request, and keeps a batch that
// panicked from taking the server with it: the *par.Panic EvalBatch raises
// on the handler's goroutine becomes a 500 carrying the thrown value, its
// stack goes to the log, and the next request is served as usual.
func withMetrics(e *Engine, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		e.metrics.count(CounterRequests)
		stop := e.metrics.timeRequest()
		defer stop()
		defer func() {
			switch p := recover().(type) {
			case nil:
			case *par.Panic:
				log.Printf("advisor: %s %s: %v", r.Method, r.URL.Path, p)
				httpError(e, w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p.Value))
			default:
				panic(p)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

const (
	// maxBatchWorkers caps the worker count a request may ask for.
	maxBatchWorkers = 64
	// maxBodyBytes caps the request body decodeBody will read.
	maxBodyBytes = 1 << 20
)

// BatchRequest is the /v1/batch body.
type BatchRequest struct {
	Queries []hibench.Query `json:"queries"`
	// Workers bounds the evaluation goroutines; 0 means 1, and the server
	// caps it at maxBatchWorkers.
	Workers int `json:"workers,omitempty"`
}

// BatchResponse answers /v1/batch and /v1/sweep: results in request
// (grid) order.
type BatchResponse struct {
	Results []Result `json:"results"`
}

// SweepRequest is the /v1/sweep body: the cross product of its axes is
// evaluated as one batch. Empty axes default to all workloads, size
// tiny, placement tier:0, the testbed policy and seed 1.
type SweepRequest struct {
	Workloads  []string `json:"workloads,omitempty"`
	Sizes      []string `json:"sizes,omitempty"`
	Placements []string `json:"placements,omitempty"`
	Policies   []string `json:"policies,omitempty"`
	Seeds      []int64  `json:"seeds,omitempty"`
	Workers    int      `json:"workers,omitempty"`
}

// Grid expands the sweep axes into the query list, in deterministic
// grid order (workload-major, seed-minor).
func (s SweepRequest) Grid() []hibench.Query {
	ws := s.Workloads
	if len(ws) == 0 {
		ws = workloads.Names()
	}
	sizes := orDefault(s.Sizes, workloads.Tiny.String())
	places := orDefault(s.Placements, "tier:0")
	policies := s.Policies
	if len(policies) == 0 {
		policies = []string{""}
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	var qs []hibench.Query
	for _, w := range ws {
		for _, size := range sizes {
			for _, place := range places {
				for _, policy := range policies {
					for _, seed := range seeds {
						qs = append(qs, hibench.Query{
							Workload: w, Size: size,
							Placement: place, Policy: policy, Seed: seed,
						})
					}
				}
			}
		}
	}
	return qs
}

func orDefault(vals []string, def string) []string {
	if len(vals) == 0 {
		return []string{def}
	}
	return vals
}

// RecommendRequest is the /v1/recommend body.
type RecommendRequest struct {
	Workload    string  `json:"workload"`
	Size        string  `json:"size"`
	Seed        int64   `json:"seed,omitempty"`
	MinNVMShare float64 `json:"min_nvm_share,omitempty"`
}

// StatsResponse answers /v1/stats.
type StatsResponse struct {
	EngineHash     string                `json:"engine_hash"`
	Counters       map[string]int64      `json:"counters"`
	LatencySeconds telemetry.DistSummary `json:"latency_seconds"`
}

func handleEval(e *Engine, w http.ResponseWriter, r *http.Request) {
	var q hibench.Query
	if !decodeBody(e, w, r, &q) {
		return
	}
	entry, err := e.evalCell(q)
	if err != nil {
		httpError(e, w, http.StatusBadRequest, err.Error())
		return
	}
	if entry.body == nil {
		httpError(e, w, http.StatusInternalServerError, "result holds a value JSON cannot carry (NaN or Inf)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(entry.body)
}

func handleBatch(e *Engine, w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if decodeBody(e, w, r, &req) {
		answerBatch(e, w, r, req.Queries, req.Workers)
	}
}

func handleSweep(e *Engine, w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if decodeBody(e, w, r, &req) {
		answerBatch(e, w, r, req.Grid(), req.Workers)
	}
}

// answerBatch evaluates a query list on the workers the request asked for,
// capped at maxBatchWorkers, for as long as the client stays connected.
func answerBatch(e *Engine, w http.ResponseWriter, r *http.Request, qs []hibench.Query, workers int) {
	results, err := e.evalBatch(r.Context(), qs, min(workers, maxBatchWorkers))
	if err != nil {
		httpError(e, w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(e, w, BatchResponse{Results: results})
}

func handleRecommend(e *Engine, w http.ResponseWriter, r *http.Request) {
	var req RecommendRequest
	if !decodeBody(e, w, r, &req) {
		return
	}
	rec, err := e.Recommend(r.Context(), req.Workload, req.Size, req.Seed, req.MinNVMShare)
	if err != nil {
		httpError(e, w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(e, w, rec)
}

func handleStats(e *Engine, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(e, w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(e, w, StatsResponse{
		EngineHash:     e.EngineHash(),
		Counters:       e.Registry().Snapshot(),
		LatencySeconds: e.LatencySummary(),
	})
}

// decodeBody parses a POST body of at most maxBodyBytes, reporting false
// after answering the request on failure.
func decodeBody(e *Engine, w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		httpError(e, w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	// A declared length within the limit is already enforced by net/http's
	// body reader, so only an unknown or oversized one pays for the wrapper.
	if r.ContentLength < 0 || r.ContentLength > maxBodyBytes {
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		httpError(e, w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err))
		return false
	}
	// One document per request: only whitespace may follow it.
	if _, err := dec.Token(); err != io.EOF {
		httpError(e, w, http.StatusBadRequest, "invalid request body: data after the JSON document")
		return false
	}
	return true
}

// errorBody is the uniform error response.
type errorBody struct {
	Error string `json:"error"`
}

func httpError(e *Engine, w http.ResponseWriter, status int, msg string) {
	e.metrics.count(CounterErrors)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: msg})
}

func writeJSON(e *Engine, w http.ResponseWriter, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		httpError(e, w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}
