package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/hibench"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// cellsDriver is the simulator's raw speed: distinct cells, no sharing.
// A round runs every Table II workload on Tier 2 at 1 executor x 40
// cores and at 4 x 10 with the round's own seed, so no two cells of a
// run are equal and a memo gains nothing; the data path (workload
// kernels, rdd sort/aggregate, shuffle chunks, scheduler fan-out, DES
// replay) does all the work. The 4 x 10 cells use the same layers
// differently: remote chunk reads and a multi-executor DES. 1 op = 1 cell.
type cellsDriver struct {
	e *env
}

func (d *cellsDriver) name() string   { return "cells_large" }
func (d *cellsDriver) tailQ() float64 { return 0.90 } // lands in the rf cells (2 of 14)
func (d *cellsDriver) close() error   { return nil }

// cellLayouts are the two executor layouts of a round: the paper's
// default fat executor and a four-executor split of the same 40 cores.
var cellLayouts = [][2]int{{1, 40}, {4, 10}}

// cellOutcome is the virtual ledger of one cell, from either path.
type cellOutcome struct {
	duration float64 // virtual seconds
	metrics  telemetry.RunMetrics
	summary  workloads.Summary
	nvm      memsim.Counters
}

func (d *cellsDriver) spec(w string, layout [2]int, size workloads.Size, seed int64) hibench.RunSpec {
	return hibench.RunSpec{
		Workload: w, Size: size, Tier: memsim.Tier2,
		Executors: layout[0], CoresPerExecutor: layout[1],
		Parallelism: 2 * numa.DefaultTopology().HyperthreadsPerSocket(),
		Seed:        seed,
	}
}

// setup is one untimed round at tiny size: every workload's code path
// and both layouts run once before the timed region.
func (d *cellsDriver) setup() (string, error) {
	dg := newDigester()
	for _, w := range workloads.Names() {
		for _, layout := range cellLayouts {
			res, err := hibench.Run(d.spec(w, layout, workloads.Tiny, d.e.seed))
			if err != nil {
				return "", err
			}
			dg.addf("%d|%+v|%+v\n", res.Duration, res.Metrics, res.Summary)
		}
	}
	return dg.sum(), nil
}

func (d *cellsDriver) round(r int, rec *recorder) (roundStats, error) {
	var st roundStats
	dg := newDigester()
	clock := telemetry.StartStopwatch()
	op := r * len(workloads.Names()) * len(cellLayouts)
	for _, w := range workloads.Names() {
		for _, layout := range cellLayouts {
			spec := d.spec(w, layout, d.e.sz.cellSize, d.e.seed+int64(r))
			start := clock.Seconds()
			var out cellOutcome
			var err error
			if rec == nil {
				out, err = runCell(spec)
			} else {
				out, err = tracedCell(spec, rec, d.name(), op, &st)
			}
			if err != nil {
				return st, err
			}
			st.opLat = append(st.opLat, clock.Seconds()-start)
			st.check(out.duration > 0 && out.summary.Records > 0)
			dg.addf("%s|%v|%+v|%+v|%+v\n", spec, out.duration, out.metrics, out.summary, out.nvm)
			if rec != nil {
				st.count("scheduler.tasks", float64(out.metrics.Tasks))
				st.count("scheduler.stages", float64(out.metrics.Stages))
				st.count("shuffle.bytes", float64(out.metrics.ShuffleRead))
				st.count("memsim.media_bytes", float64(out.metrics.MediaReadBytes+out.metrics.MediaWriteBytes))
				st.count("hibench.virtual_s", out.duration)
			}
			op++
		}
	}
	st.wall = clock.Seconds()
	st.opSeconds = st.wall
	st.digest = dg.sum()
	return st, nil
}

// runCell is the timed path: the public entry point every experiment
// harness uses.
func runCell(spec hibench.RunSpec) (cellOutcome, error) {
	res, err := hibench.Run(spec)
	if err != nil {
		return cellOutcome{}, err
	}
	return cellOutcome{
		duration: res.Duration.Seconds(), metrics: res.Metrics,
		summary: res.Summary, nvm: res.NVMCounters,
	}, nil
}

// tracedCell is the traced path: the body of hibench.Run rebuilt from
// the public calls it makes, with a span around each layer boundary.
// The round digest proves it computes the same virtual ledger.
func tracedCell(spec hibench.RunSpec, rec *recorder, workload string, op int, st *roundStats) (cellOutcome, error) {
	w, err := workloads.ByName(spec.Workload)
	if err != nil {
		return cellOutcome{}, err
	}
	conf := cluster.Conf{
		Executors:          spec.Executors,
		CoresPerExecutor:   spec.CoresPerExecutor,
		Binding:            numa.BindingForTier(spec.Tier),
		DefaultParallelism: spec.Parallelism,
		Seed:               spec.Seed,
	}
	if err := conf.Validate(); err != nil {
		return cellOutcome{}, fmt.Errorf("%s: %w", spec, err)
	}
	cell := rec.begin(workload, "cell "+spec.String(), 0, op)

	id := rec.begin(workload, "cluster.New", cell, op)
	app := cluster.New(conf)
	st.sample("cluster.new_ms", rec.end(id)*1e3)

	wide := spec.Executors > 1
	before := mallocCount()
	id = rec.begin(workload, "workloads."+spec.Workload+".Run", cell, op)
	summary := w.Run(app, spec.Size)
	runSeconds := rec.end(id)
	if wide {
		st.sample("cluster.wide_run_ms", runSeconds*1e3)
	} else {
		st.sample("workloads."+spec.Workload+".run_ms", runSeconds*1e3)
		st.sample("workloads."+spec.Workload+".mallocs_k", float64(mallocCount()-before)/1e3)
	}
	st.sample("run_s", runSeconds)

	id = rec.begin(workload, "hibench.collect", cell, op)
	out := cellOutcome{
		duration: app.Elapsed().Seconds(),
		metrics:  app.Metrics(),
		summary:  summary,
	}
	// The energy, copy-ledger and engine-counter reads are part of what
	// hibench.Run collects per cell, so they are timed though unused.
	for _, tier := range []memsim.TierID{spec.Tier, memsim.Tier0, memsim.Tier2} {
		app.EnergyReport(tier)
	}
	out.nvm.Add(app.System().Tier(memsim.Tier2).Counters())
	out.nvm.Add(app.System().Tier(memsim.Tier3).Counters())
	app.System().CopySnapshot()
	app.EngineCounters().Snapshot()
	st.sample("hibench.collect_ms", rec.end(id)*1e3)

	rec.end(cell)
	return out, nil
}

func (d *cellsDriver) layer(rounds []roundStats) map[string]float64 {
	out := map[string]float64{
		"cluster.new_ms":      median(allSamples(rounds, "cluster.new_ms")),
		"hibench.collect_ms":  median(allSamples(rounds, "hibench.collect_ms")),
		"cluster.wide_run_ms": median(allSamples(rounds, "cluster.wide_run_ms")),
	}
	for _, w := range workloads.Names() {
		for _, suffix := range []string{".run_ms", ".mallocs_k"} {
			name := "workloads." + w + suffix
			out[name] = median(allSamples(rounds, name))
		}
	}
	for _, name := range []string{"scheduler.tasks", "scheduler.stages", "shuffle.bytes", "memsim.media_bytes", "hibench.virtual_s"} {
		out[name] = firstCounts(rounds, name)
	}
	tasks := 0.0
	for _, st := range rounds {
		tasks += st.counts["scheduler.tasks"]
	}
	out["scheduler.tasks_per_s"] = tasks / sum(allSamples(rounds, "run_s"))
	return out
}
