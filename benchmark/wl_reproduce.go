package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"

	"repro/internal/core"
	"repro/internal/hibench"
	"repro/internal/memsim"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// reproduceDriver is the north-star wait: core.Reproduce, exactly what
// cmd/reproduce calls, on a reduced roster. One op = one report. Every
// round uses its own seed, so a memo that outlives one Reproduce call
// gains nothing here; the sharing inside one call (Figure 6 and the
// predictor re-simulate Figure 2's membind cells) is what a memo should
// remove.
type reproduceDriver struct {
	e *env
}

func (d *reproduceDriver) name() string   { return "reproduce" }
func (d *reproduceDriver) tailQ() float64 { return 1 } // a handful of samples: the tail is the slowest
func (d *reproduceDriver) close() error   { return nil }

// reproduceSeedStride keeps the seeds of consecutive rounds apart:
// Figure 5 runs seeds S, S+1 and S+2 inside one report.
const reproduceSeedStride = 10

// artefactMetric names the per-layer metric each timed artefact of the
// report feeds; artefacts not listed (tables, guidelines) take no
// measurable time.
var artefactMetric = map[string]string{
	"Figure 2":   "core.fig2_s",
	"Figure 3":   "core.fig3_s",
	"Figure 4":   "core.fig4_s",
	"Figure 5":   "core.fig5_s",
	"Figure 6":   "core.fig6_s",
	"predictor":  "core.predictor_s",
	"extensions": "core.extensions_s",
}

func (d *reproduceDriver) artefacts() []string {
	out := []string{"Table I", "Table II", "Figure 2", "guidelines", "Figure 3"}
	if !d.e.sz.reproduceSkipScaling {
		out = append(out, "Figure 4")
	}
	return append(out, "Figure 5", "Figure 6", "predictor", "extensions")
}

// setup lets lazy initialisation finish: one cell per roster workload
// and size through the same hibench entry point the report uses. The
// report itself is never warmed up — each round pays for a whole one.
func (d *reproduceDriver) setup() (string, error) {
	dg := newDigester()
	for _, w := range d.e.sz.reproduceRoster {
		for _, size := range workloads.AllSizes() {
			res, err := hibench.Run(hibench.RunSpec{
				Workload: w, Size: size, Tier: memsim.Tier2, Seed: d.e.seed,
			})
			if err != nil {
				return "", err
			}
			dg.addf("%d|%+v|%+v\n", res.Duration, res.Metrics, res.Summary)
		}
	}
	return dg.sum(), nil
}

func (d *reproduceDriver) round(r int, rec *recorder) (roundStats, error) {
	var st roundStats
	var report bytes.Buffer
	var fired []string
	op := rec.begin(d.name(), "core.Reproduce", 0, r)
	clock := telemetry.StartStopwatch()
	last := rec.now()
	core.Reproduce(&report, core.ReproduceOptions{
		Seed:        d.e.seed + int64(r)*reproduceSeedStride,
		SkipScaling: d.e.sz.reproduceSkipScaling,
		Workloads:   d.e.sz.reproduceRoster,
		Progress: func(artefact string) {
			fired = append(fired, artefact)
			if rec == nil {
				return
			}
			now := rec.now()
			rec.add(span{Parent: op, Name: "core." + artefact, Workload: d.name(), Op: r, StartNS: last, EndNS: now})
			if metric, ok := artefactMetric[artefact]; ok {
				st.sample(metric, float64(now-last)/1e9)
			}
			last = now
		},
	})
	st.wall = clock.Seconds()
	rec.end(op)
	st.opSeconds = st.wall
	st.opLat = []float64{st.wall}

	// The op's check: every artefact rendered, in order, into a report of
	// plausible size. The report bytes are a pure function of the seed,
	// so the digest must repeat between the timed and the traced path.
	want := d.artefacts()
	ok := len(fired) == len(want) && report.Len() > 1000
	for i := 0; ok && i < len(want); i++ {
		ok = fired[i] == want[i]
	}
	st.check(ok)
	sum := sha256.Sum256(report.Bytes())
	st.digest = hex.EncodeToString(sum[:])
	if rec != nil {
		st.count("core.report_bytes", float64(report.Len()))
	}
	return st, nil
}

func (d *reproduceDriver) layer(rounds []roundStats) map[string]float64 {
	out := map[string]float64{"core.report_bytes": firstCounts(rounds, "core.report_bytes")}
	for _, metric := range artefactMetric {
		out[metric] = median(allSamples(rounds, metric)) // 0 for an artefact the sizing skips
	}
	return out
}
