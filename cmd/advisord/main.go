// Command advisord serves the placement-advisor engine over HTTP: a
// cached, deduplicated, batch-parallel what-if service answering the
// same query cells the cmd/whatif, cmd/advisor and cmd/placement tools
// evaluate, against the same persistent cache directory.
//
// Modes:
//
//	advisord                          serve (default addr 127.0.0.1:8791)
//	advisord -mode loadgen            fire concurrent eval requests at an
//	                                  in-process server and report cache
//	                                  hit-rate, dedup and latency metrics
//	advisord -mode smoke              run a cold batch sweep then a warm
//	                                  one at a different worker count,
//	                                  assert byte-identical responses,
//	                                  report cold/warm timing
//
// Loadgen and smoke drive a real loopback listener through the full HTTP
// stack, so their metrics measure the service as deployed, not shortcuts
// around it. With -out, the final metrics report is also written to a
// JSON file (the CI artifact).
//
// The server reads a request's headers within 5 s and its body within
// 30 s, and closes a connection idle for two minutes, so a silent client
// cannot hold one open; answers have no deadline (a cold sweep takes as
// long as its simulations). On SIGINT or SIGTERM it stops accepting and
// gives in-flight requests 30 s to finish.
//
// Example session against a running server:
//
//	curl -s localhost:8791/v1/eval -d '{"workload":"pagerank","size":"tiny","placement":"tier:2"}'
//	curl -s localhost:8791/v1/sweep -d '{"sizes":["tiny"],"placements":["tier:0","tier:2"],"workers":4}'
//	curl -s localhost:8791/v1/recommend -d '{"workload":"lda","size":"tiny","min_nvm_share":0.5}'
//	curl -s localhost:8791/v1/stats
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/advisor"
	"repro/internal/hibench"
	"repro/internal/par"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

func main() {
	mode := flag.String("mode", "serve", "serve, loadgen or smoke")
	addr := flag.String("addr", "127.0.0.1:8791", "listen address (serve mode)")
	cacheDir := flag.String("cache", advisor.DefaultCacheDir, "advisor result-cache directory (empty disables)")
	out := flag.String("out", "", "write the metrics report JSON to this file (loadgen/smoke)")
	clients := flag.Int("clients", 8, "concurrent clients (loadgen)")
	requests := flag.Int("requests", 200, "total requests (loadgen)")
	workers := flag.Int("workers", 4, "batch worker count (smoke cold run)")
	seed := flag.Int64("seed", 1, "query-mix seed (loadgen)")
	flag.Parse()

	reg := telemetry.NewRegistry()
	eng := advisor.NewEngine(advisor.Options{CacheDir: *cacheDir, Registry: reg})
	handler := advisor.NewServer(eng)

	var err error
	switch *mode {
	case "serve":
		err = serve(*addr, *cacheDir, eng, handler)
	case "loadgen":
		err = loadgen(eng, handler, *clients, *requests, *seed, *out)
	case "smoke":
		err = smoke(eng, handler, *workers, *out)
	default:
		fmt.Fprintf(os.Stderr, "advisord: unknown mode %q (want serve, loadgen or smoke)\n", *mode)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func serve(addr, cacheDir string, eng *advisor.Engine, handler http.Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("advisord: listen: %w", err)
	}
	if cacheDir == "" {
		cacheDir = "(disabled)"
	}
	fmt.Fprintf(os.Stderr, "advisord: serving on http://%s (engine %s, cache %s)\n",
		ln.Addr(), eng.EngineHash()[:12], cacheDir)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveUntil(ctx, newServer(handler), ln)
}

// shutdownGrace is how long in-flight requests get to finish once the
// server has been told to stop.
const shutdownGrace = 30 * time.Second

// newServer is the http.Server every mode serves the handler with. There
// is no WriteTimeout: a cold sweep's answer takes as long as its
// simulations.
func newServer(handler http.Handler) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// serveUntil serves on ln until ctx is done, then shuts down: the
// listener closes at once and in-flight requests get shutdownGrace to
// finish. It returns nil after a clean shutdown.
func serveUntil(ctx context.Context, srv *http.Server, ln net.Listener) error {
	shut := make(chan error, 1)
	stop := context.AfterFunc(ctx, func() {
		grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		shut <- srv.Shutdown(grace)
	})
	err := srv.Serve(ln) // http.ErrServerClosed as soon as Shutdown is called
	if stop() {
		return err // Serve failed on its own; Shutdown never ran
	}
	return <-shut
}

// startLoopback serves the handler on an ephemeral loopback port and
// returns the base URL plus a shutdown function.
func startLoopback(handler http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("advisord: listen: %w", err)
	}
	srv := newServer(handler)
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { srv.Close() }, nil
}

// post sends one JSON request and returns the response body.
func post(url string, body any) ([]byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("advisord: %s: HTTP %d: %s", url, resp.StatusCode, out)
	}
	return out, nil
}

// report is the loadgen/smoke metrics summary — the CI artifact shape.
type report struct {
	Mode          string                `json:"mode"`
	Requests      int                   `json:"requests,omitempty"`
	ColdSeconds   float64               `json:"cold_seconds,omitempty"`
	WarmSeconds   float64               `json:"warm_seconds,omitempty"`
	WarmRatio     float64               `json:"warm_ratio,omitempty"`
	ByteIdentical bool                  `json:"byte_identical"`
	CacheHits     int64                 `json:"cache_hits"`
	CacheMisses   int64                 `json:"cache_misses"`
	HitRate       float64               `json:"hit_rate"`
	DedupShared   int64                 `json:"dedup_shared"`
	SimRuns       int64                 `json:"sim_runs"`
	Latency       telemetry.DistSummary `json:"latency_seconds"`
}

func buildReport(mode string, eng *advisor.Engine) report {
	reg := eng.Registry()
	hits := reg.Get(advisor.CounterCacheHit)
	misses := reg.Get(advisor.CounterCacheMiss)
	r := report{
		Mode:        mode,
		CacheHits:   hits,
		CacheMisses: misses,
		DedupShared: reg.Get(advisor.CounterDedupShare),
		SimRuns:     reg.Get(advisor.CounterSimRuns),
		Latency:     eng.LatencySummary(),
	}
	if hits+misses > 0 {
		r.HitRate = float64(hits) / float64(hits+misses)
	}
	return r
}

func emitReport(r report, out string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if out != "" {
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("advisord: write report: %w", err)
		}
	}
	return nil
}

// loadgen fires a deterministic mix of eval queries at the service from
// concurrent clients. The mix deliberately repeats cells (the grid is
// much smaller than the request count), so the run exercises both the
// persistent cache and the singleflight window and the printed hit-rate
// means something.
func loadgen(eng *advisor.Engine, handler http.Handler, clients, requests int, seed int64, out string) error {
	grid := loadgenGrid()
	rng := rand.New(rand.NewSource(seed))
	qs := make([]hibench.Query, requests)
	for i := range qs {
		qs[i] = grid[rng.Intn(len(grid))]
	}

	base, stop, err := startLoopback(handler)
	if err != nil {
		return err
	}
	defer stop()

	errs := make([]error, len(qs))
	par.Do(len(qs), max(clients, 1), func(i int) {
		_, errs[i] = post(base+"/v1/eval", qs[i])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	r := buildReport("loadgen", eng)
	r.Requests = requests
	return emitReport(r, out)
}

// loadgenGrid is the small cell universe the load generator draws from:
// every workload at tiny size across three placements.
func loadgenGrid() []hibench.Query {
	var grid []hibench.Query
	for _, w := range workloads.Names() {
		for _, place := range []string{"tier:0", "tier:2", "all-DRAM"} {
			grid = append(grid, hibench.Query{Workload: w, Size: "tiny", Placement: place, Seed: 1})
		}
	}
	return grid
}

// smoke runs the CI scenario: one cold batch sweep, then the identical
// sweep at a different worker count. The second run must be answered
// from the cache (no new simulations) and its response bytes must equal
// the first run's exactly — the determinism contract the service
// advertises.
func smoke(eng *advisor.Engine, handler http.Handler, workers int, out string) error {
	base, stop, err := startLoopback(handler)
	if err != nil {
		return err
	}
	defer stop()

	sweep := advisor.SweepRequest{
		Sizes:      []string{"tiny"},
		Placements: []string{"tier:0", "tier:2", "heap-DRAM/shuffle-NVM"},
		Workers:    workers,
	}
	cold := telemetry.StartStopwatch()
	first, err := post(base+"/v1/sweep", sweep)
	if err != nil {
		return err
	}
	coldSec := cold.Seconds()
	simsAfterCold := eng.Registry().Get(advisor.CounterSimRuns)

	sweep.Workers = workers*2 + 1 // different pool size must not change bytes
	warm := telemetry.StartStopwatch()
	second, err := post(base+"/v1/sweep", sweep)
	if err != nil {
		return err
	}
	warmSec := warm.Seconds()

	r := buildReport("smoke", eng)
	r.ColdSeconds = coldSec
	r.WarmSeconds = warmSec
	if coldSec > 0 {
		r.WarmRatio = warmSec / coldSec
	}
	r.ByteIdentical = bytes.Equal(first, second)
	if err := emitReport(r, out); err != nil {
		return err
	}
	if !r.ByteIdentical {
		return fmt.Errorf("advisord: smoke: warm sweep response differs from cold sweep")
	}
	if sims := eng.Registry().Get(advisor.CounterSimRuns); sims != simsAfterCold {
		return fmt.Errorf("advisord: smoke: warm sweep simulated %d cells; want 0", sims-simsAfterCold)
	}
	return nil
}
