package bench

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/advisor"
	"repro/internal/hibench"
	"repro/internal/telemetry"
)

// hitService is an advisor engine and its HTTP handler over one cached
// cell, built on first use so the simulation that fills the cache stays
// out of the measurement. The cache lives at a fixed path under the
// system temp dir: every run reuses the one entry file instead of
// leaving a fresh directory behind (the engine hash keeps it honest).
var hitService = sync.OnceValues(func() (*advisor.Engine, http.Handler) {
	eng := advisor.NewEngine(advisor.Options{
		CacheDir: filepath.Join(os.TempDir(), "repro-bench-advisorhit"),
		Registry: telemetry.NewRegistry(),
	})
	return eng, advisor.NewServer(eng)
})

// microAdvisorHit is what asking the advisor again costs: one cached cell
// answered once in process (Engine.Eval) and once over HTTP (/v1/eval,
// handler and JSON request decoding included, sockets excluded). The hit
// path is file read, validation and copy-out, so its allocs/op is small
// and steady; a ceiling on it trips when a hit goes back to parsing and
// re-printing JSON.
func microAdvisorHit() {
	eng, handler := hitService()
	q := hibench.Query{Workload: "sort", Size: "tiny", Placement: "tier:2", Seed: 1}
	res, err := eng.Eval(q)
	if err != nil || res.DurationNS <= 0 {
		panic(fmt.Sprintf("bench advisorHit: eval: %+v, %v", res, err))
	}
	w := httptest.NewRecorder()
	handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/eval",
		strings.NewReader(`{"workload":"sort","size":"tiny","placement":"tier:2","seed":1}`)))
	if w.Code != http.StatusOK || w.Body.Len() == 0 {
		panic(fmt.Sprintf("bench advisorHit: /v1/eval: HTTP %d %s", w.Code, w.Body))
	}
	if sims := eng.Registry().Get(advisor.CounterSimRuns); sims > 1 {
		panic(fmt.Sprintf("bench advisorHit: %d simulations of one cell; the cache is not serving it", sims))
	}
}
