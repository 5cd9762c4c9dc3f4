// Package advisor turns the simulator into queryable infrastructure: a
// placement-advisor service that answers "best placement/policy for
// workload W at size S under budget B" questions without re-simulating
// what it has already measured.
//
// The service core is Engine, one evaluation path shared by the whatif,
// advisor and placement subcommands of cmd/repro and the cmd/advisord
// HTTP server:
//
//   - every question is a hibench.Query cell (workload, size, placement,
//     policy, seed) with one canonical key;
//   - a persistent on-disk result cache (.advisorcache, one checksummed
//     file per cell holding the result as a binary record and as the
//     JSON body /v1/eval answers) is consulted first, guarded by an
//     engine-version/config/result-shape content hash so stale entries
//     can never resurface after the simulator, its configuration tables
//     or the Result struct change;
//   - concurrent identical queries are coalesced singleflight-style, so
//     N clients asking the same cold question cost one simulation;
//   - batch sweeps fan across a bounded worker pool and merge results in
//     deterministic request order — responses are byte-identical at any
//     worker count, warm or cold.
//
// Telemetry (cache hits/misses, dedup shares, simulations, request
// latency quantiles) flows through internal/telemetry; the wall-clock
// reads live in metrics.go only and never feed response bytes.
package advisor

import (
	"repro/internal/hibench"
	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Result is the cached measurement of one query cell: the fields the
// what-if, placement and tier-advisor consumers actually read — duration,
// system-level metrics, the verification summary and the DCPM access
// counters — trimmed of the energy and copy ledgers so entries stay
// compact. Its leaves are strings, ints and floats only: the cache's
// record codec (cache.go) names each one, and a test fails when a field
// added here is missing there.
type Result struct {
	Query      hibench.Query        `json:"query"`
	DurationNS int64                `json:"duration_ns"`
	Seconds    float64              `json:"seconds"`
	Metrics    telemetry.RunMetrics `json:"metrics"`
	Summary    workloads.Summary    `json:"summary"`
	// NVMCounters sums the media counters of the two DCPM tiers.
	NVMCounters memsim.Counters `json:"nvm_counters"`
	// NVMShare is the fraction of media accesses the DCPM tiers served.
	NVMShare float64 `json:"nvm_share"`
}

// resultOf trims a full run record down to the cacheable measurement.
func resultOf(q hibench.Query, res hibench.RunResult) Result {
	return Result{
		Query:       q,
		DurationNS:  int64(res.Duration),
		Seconds:     res.Duration.Seconds(),
		Metrics:     res.Metrics,
		Summary:     res.Summary,
		NVMCounters: res.NVMCounters,
		NVMShare:    hibench.NVMShare(res),
	}
}

// RunResult reconstitutes the run-record view of a cached measurement,
// so core's experiment harnesses consume cached and fresh cells through
// the same hibench.QueryRunner seam. Energy and copy-ledger fields are
// zero — the advisor's consumers do not read them.
func (r Result) RunResult() (hibench.RunResult, error) {
	spec, err := r.Query.Spec()
	if err != nil {
		return hibench.RunResult{}, err
	}
	return hibench.RunResult{
		Spec:        spec,
		Duration:    sim.Time(r.DurationNS),
		Metrics:     r.Metrics,
		Summary:     r.Summary,
		NVMCounters: r.NVMCounters,
	}, nil
}
