package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/advisor"
	"repro/internal/hibench"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// advisorDriver is the placement-advisor service as deployed: an engine
// on a fresh on-disk cache behind advisor.NewServer on a loopback
// listener, driven closed-loop by one client (procs, sizing.go): the
// client sends its next request only after the previous answer, so an
// op's latency is the request's whole path through client, loopback,
// server and engine with nothing queued behind it. It stresses what no
// other workload touches — cache decode, singleflight, JSON/HTTP and the
// engine hash — and uses the cache two ways (reads alone, writes beside
// reads) so a read-path gain that taxes stores shows.
//
// A round is: (1) a cold /v1/sweep that simulates the grid; (2) fresh
// engines on the same directory re-reading it, the pattern of the
// short-lived whatif/advisor/placement clients; (3) /v1/eval requests
// drawn uniformly from the cached grid; (4) /v1/eval requests of which
// a seeded few percent are never-seen cells (miss, simulate, store).
// 1 op = 1 HTTP request of phases 3 and 4.
type advisorDriver struct {
	e   *env
	dir string // scratch root of the current set-up

	hitMix   []int // grid index per phase-3 request
	mixedMix []int // grid index per phase-4 request, -1 = novel cell
}

func (d *advisorDriver) name() string { return "advisor_service" }

// tailQ is p99: novel cells are a fraction of a percent of the requests,
// so p99 is the tail of the hit path and is stable, where p99.9 would
// sit among a few simulations of unequal cells.
func (d *advisorDriver) tailQ() float64 { return 0.99 }

func (d *advisorDriver) close() error {
	if d.dir == "" {
		return nil
	}
	err := os.RemoveAll(d.dir)
	d.dir = ""
	return err
}

// sweep is a round's cold sweep request; its Grid is the round's cached
// cell set, in the server's answer order.
func (d *advisorDriver) sweep(seedBase int64) advisor.SweepRequest {
	return advisor.SweepRequest{
		Sizes:      d.e.sz.advisorSizes,
		Placements: d.e.sz.advisorPlacements,
		Seeds:      []int64{seedBase, seedBase + 1},
		Workers:    procs,
	}
}

// setup creates the scratch root, draws the request mixes from the seed
// and warms the whole path once (warmUp).
func (d *advisorDriver) setup() (string, error) {
	if err := d.close(); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(d.e.tmp, "advisor-*")
	if err != nil {
		return "", err
	}
	d.dir = dir

	sz := d.e.sz
	cells := len(d.sweep(1).Grid())
	rng := rand.New(rand.NewSource(d.e.seed))
	d.hitMix = make([]int, sz.advisorHitRequests)
	for i := range d.hitMix {
		d.hitMix[i] = rng.Intn(cells)
	}
	// The seed chooses where the novel cells fall in the mix, never how
	// many there are: the work of a round does not depend on the seed.
	d.mixedMix = make([]int, sz.advisorMixedRequests)
	for i := range d.mixedMix {
		d.mixedMix[i] = rng.Intn(cells)
	}
	for _, i := range rng.Perm(len(d.mixedMix))[:len(d.mixedMix)*sz.advisorNovelPercent/100] {
		d.mixedMix[i] = -1
	}

	svc, err := startService(filepath.Join(dir, "warm"))
	if err != nil {
		return "", err
	}
	body, err := d.warmUp(svc)
	if stopErr := svc.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return "", err
	}
	dg := newDigester()
	dg.addf("%s", body)
	return dg.sum(), nil
}

// warmUp sweeps every workload at tiny size on the default placement and
// reads each cell back once.
func (d *advisorDriver) warmUp(svc *service) ([]byte, error) {
	req := advisor.SweepRequest{Seeds: []int64{d.e.seed}, Workers: procs}
	body, err := svc.post("/v1/sweep", mustJSON(req))
	if err != nil {
		return nil, err
	}
	for _, q := range req.Grid() {
		if _, err := svc.post("/v1/eval", mustJSON(q)); err != nil {
			return nil, err
		}
	}
	return body, nil
}

// service is one engine behind a loopback listener plus its client.
type service struct {
	eng    *advisor.Engine
	reg    *telemetry.Registry
	base   string
	srv    *http.Server
	done   chan error
	client *http.Client
}

func startService(cacheDir string) (*service, error) {
	reg := telemetry.NewRegistry()
	eng := advisor.NewEngine(advisor.Options{CacheDir: cacheDir, Registry: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{
		eng: eng, reg: reg,
		base:   "http://" + ln.Addr().String(),
		srv:    &http.Server{Handler: advisor.NewServer(eng)},
		done:   make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop closes the listener and the client's connections and waits for
// the serving goroutine to end; calling it twice is harmless.
func (s *service) stop() error {
	if s.srv == nil {
		return nil
	}
	s.client.CloseIdleConnections()
	err := s.srv.Close()
	if serveErr := <-s.done; err == nil && !errors.Is(serveErr, http.ErrServerClosed) {
		err = serveErr
	}
	s.srv = nil
	return err
}

// post sends one JSON body and returns the response body; any non-200
// status is an error.
func (s *service) post(path string, body []byte) ([]byte, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, out)
	}
	return out, nil
}

// mustJSON encodes a request value; the request types here cannot fail
// to encode.
func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

// indented renders a value the way the server writes response bodies.
func indented(v any) []byte {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(data, '\n')
}

func (d *advisorDriver) round(r int, rec *recorder) (st roundStats, err error) {
	sz := d.e.sz
	dir, err := os.MkdirTemp(d.dir, "round-*")
	if err != nil {
		return st, err
	}
	defer func() {
		if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
			err = rmErr
		}
	}()
	seedBase := d.e.seed + 2*int64(r)
	sweep := d.sweep(seedBase)
	grid := sweep.Grid()
	dg := newDigester()
	clock := telemetry.StartStopwatch()

	// Phase 1: cold sweep through the server.
	phase := rec.begin(d.name(), "phase 1: cold sweep", 0, r)
	svc, err := startService(dir)
	if err != nil {
		return st, err
	}
	defer func() {
		if stopErr := svc.stop(); stopErr != nil && err == nil {
			err = stopErr
		}
	}()
	coldBody, err := svc.post("/v1/sweep", mustJSON(sweep))
	if err != nil {
		return st, err
	}
	coldSeconds := rec.end(phase)
	var cold advisor.BatchResponse
	if err := json.Unmarshal(coldBody, &cold); err != nil {
		return st, fmt.Errorf("decode cold sweep: %w", err)
	}
	st.check(len(cold.Results) == len(grid) && svc.reg.Get(advisor.CounterSimRuns) == int64(len(grid)))
	if len(cold.Results) != len(grid) {
		return st, fmt.Errorf("cold sweep answered %d of %d cells", len(cold.Results), len(grid))
	}
	dg.addf("%s", coldBody)
	requests := make([][]byte, len(grid))
	expected := make([][]byte, len(grid))
	for i, q := range grid {
		requests[i] = mustJSON(q)
		expected[i] = indented(cold.Results[i])
	}
	if rec != nil {
		st.sample("advisor.cold_sweep_s", coldSeconds)
		st.count("advisor.cache_bytes", float64(dirBytes(dir)))
	}

	// Phase 2: short-lived engines sharing the cache directory.
	phase = rec.begin(d.name(), "phase 2: warm sweeps", 0, r)
	for i := 0; i < sz.advisorWarmSweeps; i++ {
		reg := telemetry.NewRegistry()
		id := rec.begin(d.name(), "advisor.NewEngine", phase, i)
		eng := advisor.NewEngine(advisor.Options{CacheDir: dir, Registry: reg})
		openSeconds := rec.end(id)
		id = rec.begin(d.name(), "advisor.Engine.EvalBatch", phase, i)
		results, err := eng.EvalBatch(grid, procs)
		sweepSeconds := rec.end(id)
		if err != nil {
			return st, err
		}
		ok := reg.Get(advisor.CounterSimRuns) == 0
		if i == 0 || i == sz.advisorWarmSweeps-1 {
			// A cached response must be byte-equal to the cold one.
			ok = ok && bytes.Equal(indented(advisor.BatchResponse{Results: results}), coldBody)
		}
		st.check(ok)
		if rec != nil {
			st.sample("advisor.engine_open_ms", openSeconds*1e3)
			st.sample("advisor.warm_sweep_ms", sweepSeconds*1e3)
		}
	}
	rec.end(phase)

	// Phase 3: read-only load.
	opStart := clock.Seconds()
	phase = rec.begin(d.name(), "phase 3: cached evals", 0, r)
	hit := d.load(svc, d.hitMix, requests, expected, nil, rec, phase, 0)
	hitSeconds := clock.Seconds() - opStart
	rec.end(phase)
	st.check(svc.reg.Get(advisor.CounterSimRuns) == int64(len(grid))) // phase 3 simulated nothing

	// Phase 4: the same load with never-seen cells mixed in.
	novel := make([][]byte, len(d.mixedMix))
	novelCount := 0
	for i, idx := range d.mixedMix {
		if idx < 0 {
			// The j-th novel cell is the same cell whatever its position.
			novel[i] = mustJSON(hibench.Query{
				Workload:  workloads.Names()[novelCount%len(workloads.Names())],
				Size:      sz.advisorSizes[0],
				Placement: sz.advisorPlacements[novelCount%len(sz.advisorPlacements)],
				Seed:      seedBase + 1_000_000 + int64(novelCount),
			})
			novelCount++
		}
	}
	mixedStart := clock.Seconds()
	phase = rec.begin(d.name(), "phase 4: mixed evals", 0, r)
	mixed := d.load(svc, d.mixedMix, requests, expected, novel, rec, phase, len(d.hitMix))
	mixedSeconds := clock.Seconds() - mixedStart
	rec.end(phase)
	st.check(svc.reg.Get(advisor.CounterSimRuns) == int64(len(grid)+novelCount))

	st.wall = clock.Seconds()
	st.opSeconds = hitSeconds + mixedSeconds
	st.opLat = append(hit.lat, mixed.lat...)
	st.attempted += len(st.opLat)
	st.failed += hit.failed + mixed.failed
	for _, ns := range mixed.novelNS {
		dg.addf("%d\n", ns)
	}
	st.digest = dg.sum()

	if rec != nil {
		st.sample("advisor.hit_qps", float64(len(hit.lat))/hitSeconds)
		st.sample("advisor.mixed_qps", float64(len(mixed.lat))/mixedSeconds)
		for _, l := range hit.lat {
			st.sample("hit_s", l)
		}
		for i, idx := range d.mixedMix {
			if idx < 0 {
				st.sample("advisor.miss_p50_ms", mixed.lat[i]*1e3)
			}
		}
		// In-process hits: the same cached cells without HTTP.
		for i := 0; i < sz.advisorEvalProbes; i++ {
			start := clock.Seconds()
			if _, err := svc.eng.Eval(grid[d.hitMix[i%len(d.hitMix)]]); err != nil {
				return st, err
			}
			st.sample("advisor.eval_hit_us", (clock.Seconds()-start)*1e6)
		}
		st.count("advisor.sim_runs", float64(svc.reg.Get(advisor.CounterSimRuns)))
		st.count("advisor.cache_hits", float64(svc.reg.Get(advisor.CounterCacheHit)))
		st.count("advisor.dedup_shared", float64(svc.reg.Get(advisor.CounterDedupShare)))
	}
	return st, nil
}

// loadResult is what one closed-loop load phase observed.
type loadResult struct {
	lat     []float64 // per request, in mix order
	failed  int
	novelNS []int64 // virtual duration of each novel cell, in mix order
}

// load replays a request mix against the service from procs closed-loop
// clients: each sends its next request only after the previous answer.
// A request fails on any error or non-200 status, when a cached answer
// is not byte-equal to the cold one, or when a novel cell comes back
// without a simulated duration.
func (d *advisorDriver) load(svc *service, mix []int, requests, expected, novel [][]byte,
	rec *recorder, parent, opBase int) loadResult {
	res := loadResult{lat: make([]float64, len(mix))}
	novelNS := make([]int64, len(mix))
	var next, failed atomic.Int64
	clock := telemetry.StartStopwatch()
	var wg sync.WaitGroup
	for c := 0; c < procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(mix) {
					return
				}
				body, want := []byte(nil), []byte(nil)
				if idx := mix[i]; idx >= 0 {
					body, want = requests[idx], expected[idx]
				} else {
					body = novel[i]
				}
				id := rec.begin(d.name(), "http /v1/eval", parent, opBase+i)
				start := clock.Seconds()
				got, err := svc.post("/v1/eval", body)
				res.lat[i] = clock.Seconds() - start
				rec.end(id)
				switch {
				case err != nil:
					failed.Add(1)
				case want != nil:
					if !bytes.Equal(got, want) {
						failed.Add(1)
					}
				default:
					var cell advisor.Result
					if json.Unmarshal(got, &cell) != nil || cell.DurationNS <= 0 {
						failed.Add(1)
					}
					novelNS[i] = cell.DurationNS
				}
			}
		}()
	}
	wg.Wait()
	res.failed = int(failed.Load())
	for i, idx := range mix {
		if idx < 0 {
			res.novelNS = append(res.novelNS, novelNS[i])
		}
	}
	return res
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, entry fs.DirEntry, err error) error {
		if err != nil || entry.IsDir() {
			return err
		}
		info, err := entry.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	if err != nil {
		return -1
	}
	return total
}

func (d *advisorDriver) layer(rounds []roundStats) map[string]float64 {
	out := map[string]float64{}
	for _, name := range []string{"advisor.engine_open_ms", "advisor.cold_sweep_s", "advisor.warm_sweep_ms",
		"advisor.hit_qps", "advisor.mixed_qps", "advisor.miss_p50_ms", "advisor.eval_hit_us"} {
		out[name] = median(allSamples(rounds, name))
	}
	cells := float64(len(d.sweep(1).Grid()))
	out["advisor.warm_cell_us"] = out["advisor.warm_sweep_ms"] * 1e3 / cells
	hits := allSamples(rounds, "hit_s")
	out["advisor.hit_p50_us"] = median(hits) * 1e6
	out["advisor.hit_p99_us"] = quantile(hits, 0.99) * 1e6
	out["advisor.server_overhead_us"] = out["advisor.hit_p50_us"] - out["advisor.eval_hit_us"]
	for _, name := range []string{"advisor.sim_runs", "advisor.cache_hits", "advisor.cache_bytes", "advisor.dedup_shared"} {
		out[name] = firstCounts(rounds, name)
	}
	return out
}
