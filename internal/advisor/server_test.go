package advisor

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/hibench"
	"repro/internal/par"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

func testServer(t *testing.T) (*Engine, *httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	e := stubEngine(t, t.TempDir(), &calls, nil)
	srv := httptest.NewServer(NewServer(e))
	t.Cleanup(srv.Close)
	return e, srv, &calls
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestServerEval(t *testing.T) {
	e, srv, calls := testServer(t)
	resp, body := postJSON(t, srv.URL+"/v1/eval", `{"workload":"pagerank","size":"tiny","placement":"tier:2"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	want := hibench.Query{Workload: "pagerank", Size: "tiny", Placement: "tier:2", Seed: 1}
	if res.Query != want {
		t.Fatalf("response answers %+v; want normalized %+v", res.Query, want)
	}
	if calls.Load() != 1 {
		t.Fatalf("eval simulated %d times; want 1", calls.Load())
	}

	// The answer is the stdlib's rendering of the cell, and the same bytes
	// cold, warm, and from another engine that finds the entry on disk.
	inProcess, err := e.Eval(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, rendered(t, inProcess)) {
		t.Fatalf("/v1/eval answered\n%s\nwant the indented rendering of\n%+v", body, inProcess)
	}
	fresh := httptest.NewServer(NewServer(NewEngine(Options{CacheDir: e.cache.dir, Runner: func(hibench.Query) (hibench.RunResult, error) {
		return hibench.RunResult{}, errors.New("a persisted cell was simulated again")
	}})))
	defer fresh.Close()
	for name, url := range map[string]string{"warm": srv.URL, "fresh engine": fresh.URL} {
		resp, again := postJSON(t, url+"/v1/eval", `{"workload":"pagerank","size":"tiny","placement":"tier:2","seed":1}`)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(again, body) {
			t.Fatalf("%s /v1/eval: HTTP %d, body\n%s\nwant the cold answer\n%s", name, resp.StatusCode, again, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s /v1/eval: Content-Type %q", name, ct)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("warm evals re-simulated (calls=%d)", calls.Load())
	}
}

// A result encoding/json has no spelling for (NaN, Inf) is never stored
// and is a 500 over HTTP, every time it is asked for.
func TestServerEvalUnrenderableResultIs500(t *testing.T) {
	e := NewEngine(Options{CacheDir: t.TempDir(), Registry: telemetry.NewRegistry(), Runner: func(q hibench.Query) (hibench.RunResult, error) {
		run := fabricate(q)
		run.Metrics.CPUNS = math.NaN()
		return run, nil
	}})
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	for i := 1; i <= 2; i++ {
		resp, body := postJSON(t, srv.URL+"/v1/eval", `{"workload":"sort","size":"tiny"}`)
		var eb errorBody
		if err := json.Unmarshal(body, &eb); resp.StatusCode != http.StatusInternalServerError || err != nil || eb.Error == "" {
			t.Fatalf("request %d: HTTP %d (%s); want 500 with an error body", i, resp.StatusCode, body)
		}
		if sims := e.Registry().Get(CounterSimRuns); sims != int64(i) {
			t.Fatalf("request %d: %d simulations; an unrenderable cell must not be cached", i, sims)
		}
	}
	if resp, body := postJSON(t, srv.URL+"/v1/sweep", `{"workloads":["sort"]}`); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("/v1/sweep over the same cell: HTTP %d (%s); want 500", resp.StatusCode, body)
	}
}

// A client that hangs up stops its sweep at the next cell boundary: the
// simulation in flight finishes and is stored — it is somebody's future
// hit — the cells behind it are never started, and the server goes on
// serving.
func TestClientHangUpStopsItsSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	e := NewEngine(Options{CacheDir: t.TempDir(), Registry: telemetry.NewRegistry(), Runner: func(q hibench.Query) (hibench.RunResult, error) {
		if calls.Add(1) == 3 {
			cancel()
		}
		return fabricate(q), nil
	}})
	handler := NewServer(e)
	post := func(ctx context.Context, path, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)).WithContext(ctx))
		return w
	}
	cells := len(SweepRequest{}.Grid())
	if w := post(ctx, "/v1/sweep", `{"workers":1}`); w.Code == http.StatusOK || !strings.Contains(w.Body.String(), context.Canceled.Error()) {
		t.Fatalf("abandoned sweep answered HTTP %d (%s); want the context's error", w.Code, w.Body)
	}
	if got := e.Registry().Get(CounterSimRuns); got != 3 {
		t.Fatalf("a sweep abandoned during its third cell simulated %d of %d; want 3", got, cells)
	}
	for _, req := range [][2]string{
		{"/v1/batch", `{"queries":[{"workload":"lda","size":"small"}]}`},
		{"/v1/recommend", `{"workload":"lda","size":"small"}`},
	} {
		if w := post(ctx, req[0], req[1]); w.Code == http.StatusOK {
			t.Errorf("%s under a done context answered 200", req[0])
		}
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("requests that arrived abandoned started %d simulations", got-3)
	}
	// The next client gets the whole grid; three cells of it are hits.
	if w := post(context.Background(), "/v1/sweep", `{"workers":1}`); w.Code != http.StatusOK {
		t.Fatalf("sweep after the hang-up: HTTP %d (%s)", w.Code, w.Body)
	}
	if sims, hits := e.Registry().Get(CounterSimRuns), e.Registry().Get(CounterCacheHit); sims != int64(cells) || hits != 3 {
		t.Fatalf("after the second sweep: %d simulations, %d hits; want %d and 3", sims, hits, cells)
	}
}

func TestServerEvalRejectsBadRequests(t *testing.T) {
	e, srv, calls := testServer(t)
	for name, body := range map[string]string{
		"unknown-workload": `{"workload":"bogus","size":"tiny"}`,
		"unknown-field":    `{"workload":"pagerank","size":"tiny","frobnicate":1}`,
		"not-json":         `pagerank tiny please`,
		"second-document":  `{"workload":"pagerank","size":"tiny"}{"workload":"lda","size":"tiny"}`,
		"trailing-brace":   `{"workload":"pagerank","size":"tiny"} }`,
	} {
		resp, respBody := postJSON(t, srv.URL+"/v1/eval", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d (%s); want 400", name, resp.StatusCode, respBody)
		}
		var eb errorBody
		if err := json.Unmarshal(respBody, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error response %s is not an error body", name, respBody)
		}
	}
	if calls.Load() != 0 {
		t.Fatalf("bad requests reached the runner %d times", calls.Load())
	}
	if errs := e.Registry().Get(CounterErrors); errs != 5 {
		t.Fatalf("error counter = %d; want 5", errs)
	}
	// Whitespace after the document is not a second document.
	if resp, body := postJSON(t, srv.URL+"/v1/eval", "{\"workload\":\"pagerank\",\"size\":\"tiny\"} \n\t\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("trailing whitespace: HTTP %d (%s); want 200", resp.StatusCode, body)
	}
}

func TestServerMethodDiscipline(t *testing.T) {
	_, srv, _ := testServer(t)
	if resp, err := http.Get(srv.URL + "/v1/eval"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/eval: HTTP %d; want 405", resp.StatusCode)
	}
	if resp, body := postJSON(t, srv.URL+"/v1/stats", `{}`); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/stats: HTTP %d (%s); want 405", resp.StatusCode, body)
	}
}

func TestServerSweepByteIdenticalAcrossWorkerCounts(t *testing.T) {
	_, srv, calls := testServer(t)
	sweep := `{"workloads":["pagerank","lda"],"sizes":["tiny"],"placements":["tier:0","tier:2"],"workers":%d}`

	resp, cold := postJSON(t, srv.URL+"/v1/sweep", fmt.Sprintf(sweep, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold sweep: HTTP %d: %s", resp.StatusCode, cold)
	}
	coldSims := calls.Load()
	if coldSims != 4 {
		t.Fatalf("cold sweep simulated %d cells; want 4", coldSims)
	}
	for _, workers := range []int{2, 7} {
		resp, warm := postJSON(t, srv.URL+"/v1/sweep", fmt.Sprintf(sweep, workers))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm sweep (workers=%d): HTTP %d", workers, resp.StatusCode)
		}
		if string(warm) != string(cold) {
			t.Fatalf("sweep response at workers=%d differs from workers=1", workers)
		}
	}
	if calls.Load() != coldSims {
		t.Fatalf("warm sweeps re-simulated (%d total calls)", calls.Load())
	}
}

func TestServerBatchMatchesEngine(t *testing.T) {
	e, srv, _ := testServer(t)
	resp, body := postJSON(t, srv.URL+"/v1/batch",
		`{"queries":[{"workload":"sort","size":"tiny"},{"workload":"lda","size":"tiny","placement":"all-NVM"}],"workers":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var got BatchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want, err := e.EvalBatch([]hibench.Query{
		{Workload: "sort", Size: "tiny"},
		{Workload: "lda", Size: "tiny", Placement: "all-NVM"},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want) {
		t.Fatalf("%d results; want %d", len(got.Results), len(want))
	}
	for i := range want {
		if got.Results[i] != want[i] {
			t.Fatalf("result %d differs over HTTP", i)
		}
	}
}

func TestServerRecommend(t *testing.T) {
	_, srv, _ := testServer(t)
	resp, body := postJSON(t, srv.URL+"/v1/recommend", `{"workload":"pagerank","size":"tiny"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var rec Recommendation
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Best < 0 || rec.Best >= len(rec.Candidates) {
		t.Fatalf("best index %d out of range of %d candidates", rec.Best, len(rec.Candidates))
	}
}

func TestServerStatsAndHealth(t *testing.T) {
	e, srv, _ := testServer(t)
	if _, err := e.Eval(hibench.Query{Workload: "pagerank", Size: "tiny"}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.EngineHash != e.EngineHash() {
		t.Fatalf("stats engine hash %q != engine %q", stats.EngineHash, e.EngineHash())
	}
	if stats.Counters[CounterSimRuns] != 1 {
		t.Fatalf("stats counters %v missing the simulation", stats.Counters)
	}
	if stats.LatencySeconds.Count == 0 {
		t.Fatal("stats reports no observed request latencies")
	}
}

func TestSweepGridDefaultsAndOrder(t *testing.T) {
	grid := SweepRequest{}.Grid()
	names := workloads.Names()
	if len(grid) != len(names) {
		t.Fatalf("default grid has %d cells; want one per workload (%d)", len(grid), len(names))
	}
	for i, q := range grid {
		want := hibench.Query{Workload: names[i], Size: "tiny", Placement: "tier:0", Seed: 1}
		if q != want {
			t.Fatalf("grid[%d] = %+v; want %+v", i, q, want)
		}
	}

	full := SweepRequest{
		Workloads:  []string{"sort"},
		Sizes:      []string{"tiny", "small"},
		Placements: []string{"tier:0", "tier:2"},
		Policies:   []string{"", "cxl-dram"},
		Seeds:      []int64{1, 2},
	}.Grid()
	if len(full) != 1*2*2*2*2 {
		t.Fatalf("full grid has %d cells; want 16", len(full))
	}
	// Grid order is workload-major, seed-minor: the first two cells vary
	// only the seed.
	if full[0].Seed != 1 || full[1].Seed != 2 || full[0].Policy != full[1].Policy {
		t.Fatalf("grid order wrong: %+v then %+v", full[0], full[1])
	}
}

func TestStatsCountersAreRegistryBacked(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := NewEngine(Options{Registry: reg, Runner: func(q hibench.Query) (hibench.RunResult, error) {
		return fabricate(q), nil
	}})
	if _, err := e.Eval(hibench.Query{Workload: "pagerank", Size: "tiny"}); err != nil {
		t.Fatal(err)
	}
	if reg.Get(CounterCacheMiss) != 1 || reg.Get(CounterSimRuns) != 1 {
		t.Fatalf("registry not updated: %v", reg.Snapshot())
	}
}

// A panic out of a query's evaluation used to unwind a bare EvalBatch
// goroutine and kill the process. It now reaches EvalBatch's caller as a
// *par.Panic, and behind the server it is a 500 in the uniform error body
// with the stack in the log — after which the same server still answers.
func TestBatchPanicIsContained(t *testing.T) {
	boom := errors.New("runner exploded")
	e := NewEngine(Options{
		Registry: telemetry.NewRegistry(),
		Runner: func(q hibench.Query) (hibench.RunResult, error) {
			if q.Workload == "lda" {
				panic(boom)
			}
			return fabricate(q), nil
		},
	})
	qs := []hibench.Query{{Workload: "sort", Size: "tiny"}, {Workload: "lda", Size: "tiny"}}
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				p, ok := recover().(*par.Panic)
				if !ok || p.Index != 1 || p.Value != error(boom) || !errors.Is(p, boom) {
					t.Fatalf("workers=%d: EvalBatch raised %+v; want a *par.Panic of query 1 carrying the thrown error", workers, p)
				}
			}()
			e.EvalBatch(qs, workers)
			t.Fatalf("workers=%d: EvalBatch returned past a panicking runner", workers)
		}()
	}

	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	errsBefore := e.Registry().Get(CounterErrors)
	for path, body := range map[string]string{
		"/v1/batch":     `{"queries":[{"workload":"sort","size":"tiny"},{"workload":"lda","size":"tiny"}],"workers":2}`,
		"/v1/sweep":     `{"workloads":["sort","lda"],"workers":2}`,
		"/v1/recommend": `{"workload":"lda","size":"tiny"}`,
	} {
		resp, respBody := postJSON(t, srv.URL+path, body)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("%s: HTTP %d (%s); want 500", path, resp.StatusCode, respBody)
		}
		var eb errorBody
		if err := json.Unmarshal(respBody, &eb); err != nil || !strings.Contains(eb.Error, boom.Error()) {
			t.Errorf("%s: body %s is not an error body naming the thrown value", path, respBody)
		}
		if strings.Contains(eb.Error, "goroutine") {
			t.Errorf("%s: the response leaks the stack: %s", path, eb.Error)
		}
		if resp, respBody := postJSON(t, srv.URL+"/v1/eval", `{"workload":"sort","size":"tiny"}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("after %s: /v1/eval answers HTTP %d (%s); the server did not survive", path, resp.StatusCode, respBody)
		}
	}
	if got := e.Registry().Get(CounterErrors) - errsBefore; got != 3 {
		t.Errorf("error counter rose by %d; want 3", got)
	}
	if !strings.Contains(logged.String(), "goroutine") || !strings.Contains(logged.String(), boom.Error()) {
		t.Errorf("the log does not hold the panic's value and stack:\n%s", logged.String())
	}
}

// A request cannot size the server's goroutines or its read buffer: an
// absurd worker count is clamped and answers normally, a body past
// maxBodyBytes is refused before it is buffered.
func TestServerBoundsWorkersAndBody(t *testing.T) {
	_, srv, _ := testServer(t)
	for path, body := range map[string]string{
		"/v1/batch": `{"queries":[{"workload":"sort","size":"tiny"},{"workload":"lda","size":"tiny"}],"workers":1073741824}`,
		"/v1/sweep": `{"workloads":["sort","lda"],"workers":1073741824}`,
	} {
		resp, respBody := postJSON(t, srv.URL+path, body)
		var got BatchResponse
		if err := json.Unmarshal(respBody, &got); resp.StatusCode != http.StatusOK || err != nil || len(got.Results) != 2 {
			t.Errorf("%s with 2^30 workers: HTTP %d, %d results (%v); want 200 and 2", path, resp.StatusCode, len(got.Results), err)
		}
	}
	huge := `{"workload":"` + strings.Repeat("a", maxBodyBytes) + `","size":"tiny"}`
	for path, body := range map[string]string{
		"/v1/eval":      huge,
		"/v1/batch":     `{"queries":[` + huge + `]}`,
		"/v1/sweep":     `{"workloads":["` + strings.Repeat("a", maxBodyBytes) + `"]}`,
		"/v1/recommend": huge,
	} {
		resp, respBody := postJSON(t, srv.URL+path, body)
		var eb errorBody
		if err := json.Unmarshal(respBody, &eb); resp.StatusCode != http.StatusBadRequest || err != nil || !strings.Contains(eb.Error, "too large") {
			t.Errorf("%s with a %d-byte body: HTTP %d (%.80s); want 400 naming the limit", path, len(body), resp.StatusCode, respBody)
		}
	}
	// The same body with no declared length (chunked) is cut off while read.
	resp, err := http.Post(srv.URL+"/v1/eval", "application/json", struct{ io.Reader }{strings.NewReader(huge)})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("chunked %d-byte body: HTTP %d; want 400", len(huge), resp.StatusCode)
	}
}
