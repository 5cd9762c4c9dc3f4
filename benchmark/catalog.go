package main

import "repro/internal/workloads"

// workloadSpec is one benchmark workload as BENCHMARK.json lists it.
type workloadSpec struct {
	name string
	why  string
}

func workloadSpecs() []workloadSpec {
	return []workloadSpec{
		{"reproduce", "core.Reproduce on a two-workload roster, one report per op: cells shared between figures and serial cell evaluation, where a memo and ordered fan-out must show"},
		{"cells_large", "all seven workloads at large on Tier 2 at 1x40 and 4x10 with a fresh seed per round: no two cells equal, so a memo is bypassed and the data path does all the work"},
		{"tiering_sweep", "autotier policy sweep plus Engine.Tick storms over 16k cached blocks: the only workload where tiering and heat own a large share of host time"},
		{"advisor_service", "advisor engine behind its HTTP server on a fresh disk cache, one closed-loop client: cold sweep, fresh-engine warm sweeps, cached evals, then evals with 3% new cells beside the hits"},
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloadSpecs() {
		out = append(out, w.name)
	}
	return out
}

// metricSpec describes one reported number. Every timing is host time
// unless the name contains "virtual"; exact metrics are counts of the
// deterministic virtual ledger and repeat bit-for-bit at a fixed seed.
type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	layer  string  // per-layer only: the internal/ package that owns it
	exact  bool
}

// endToEnd lists the metrics every workload reports from a timed run.
// A round is the workload's fixed unit of work (see sizing.go), so the
// per-round numbers are what the original fixed-size design called
// wall_s, cpu_s and mallocs_k.
//
// Every timing is the quiet quartile of the run's rounds at reference
// speed (harness.go, calib.go). So measured, runs of one commit lay 1-8 %
// apart, quartile to quartile (sizing.go). The bounds stay at the widest
// the contract allows all the same: the sandbox's slow phases differ from
// hour to hour, and a bound that another day's weather exceeds rejects an
// innocent change. A gain is claimed by the paired procedure in README.md,
// not by clearing a bound. Only the allocation count repeats closely
// enough for a tight one.
func endToEnd() []metricSpec {
	return []metricSpec{
		{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
		{name: "round_s", unit: "s", better: "lower", bound: 0.25},
		{name: "cpu_s_per_round", unit: "s", better: "lower", bound: 0.25},
		{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
		{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
		{name: "op_tail_ms", unit: "ms", better: "lower", bound: 0.25},
		{name: "mallocs_k_per_round", unit: "k", better: "lower", bound: 0.03},
	}
}

// perLayer lists the metrics a traced run reports, whichever workload
// it was started for.
func perLayer() []metricSpec {
	ms := func(name, unit, better, layer string) metricSpec {
		return metricSpec{name: name, unit: unit, better: better, layer: layer}
	}
	exact := func(name, unit, better, layer string) metricSpec {
		return metricSpec{name: name, unit: unit, better: better, layer: layer, exact: true}
	}
	out := []metricSpec{
		// reproduce: span between consecutive Progress calls.
		ms("core.fig2_s", "s", "lower", "core"),
		ms("core.fig3_s", "s", "lower", "core"),
		ms("core.fig4_s", "s", "lower", "core"),
		ms("core.fig5_s", "s", "lower", "core"),
		ms("core.fig6_s", "s", "lower", "core"),
		ms("core.predictor_s", "s", "lower", "core"),
		ms("core.extensions_s", "s", "lower", "core"),
		exact("core.report_bytes", "count", "lower", "core"),

		// cells_large: the body of hibench.Run, call by call.
		ms("cluster.new_ms", "ms", "lower", "cluster"),
		ms("hibench.collect_ms", "ms", "lower", "hibench"),
		ms("cluster.wide_run_ms", "ms", "lower", "cluster"),
	}
	for _, w := range workloads.Names() {
		out = append(out, ms("workloads."+w+".run_ms", "ms", "lower", "workloads"))
	}
	for _, w := range workloads.Names() {
		out = append(out, ms("workloads."+w+".mallocs_k", "k", "lower", "workloads"))
	}
	return append(out,
		exact("scheduler.tasks", "count", "lower", "scheduler"),
		exact("scheduler.stages", "count", "lower", "scheduler"),
		exact("shuffle.bytes", "bytes", "lower", "shuffle"),
		exact("memsim.media_bytes", "bytes", "lower", "memsim"),
		exact("hibench.virtual_s", "s", "lower", "hibench"),
		ms("scheduler.tasks_per_s", "1/s", "higher", "scheduler"),

		// probes: one layer's public functions on fixed synthetic inputs.
		ms("rdd.reduce_by_key_ms", "ms", "lower", "rdd"),
		ms("rdd.group_by_key_ms", "ms", "lower", "rdd"),
		ms("rdd.group_by_key_mallocs_k", "k", "lower", "rdd"),
		ms("rdd.sort_by_key_ms", "ms", "lower", "rdd"),
		ms("executor.des_us_per_task", "us", "lower", "executor"),
		ms("executor.task_context_us", "us", "lower", "executor"),
		ms("sim.events_per_s", "1/s", "higher", "sim"),
		ms("sim.flows_per_s", "1/s", "higher", "sim"),
		ms("memsim.burst_ns", "ns", "lower", "memsim"),
		ms("shuffle.put_fetch_us", "us", "lower", "shuffle"),
		ms("blockmgr.put_get_us", "us", "lower", "blockmgr"),
		ms("heat.tracker_tick_us", "us", "lower", "heat"),
		ms("heat.classify_us", "us", "lower", "heat"),
		ms("heat.forecast_us", "us", "lower", "heat"),
		ms("heat.mover_batch_us", "us", "lower", "heat"),
		ms("advisor.cache_lookup_us", "us", "lower", "advisor"),
		ms("advisor.cache_store_us", "us", "lower", "advisor"),
		ms("hibench.query_key_ns", "ns", "lower", "hibench"),

		// tiering_sweep.
		ms("tiering.sweep_s", "s", "lower", "tiering"),
		ms("tiering.storm_s", "s", "lower", "tiering"),
		ms("tiering.tick_us.watermark", "us", "lower", "tiering"),
		ms("tiering.tick_us.bandwidth", "us", "lower", "tiering"),
		ms("tiering.tick_us.age", "us", "lower", "tiering"),
		ms("tiering.tick_us.forecast", "us", "lower", "tiering"),
		ms("tiering.cell_ms", "ms", "lower", "tiering"),
		ms("tiering.dynamic_over_static", "ratio", "lower", "tiering"),
		exact("tiering.epochs", "count", "lower", "tiering"),
		exact("tiering.moves", "count", "lower", "tiering"),
		exact("tiering.moved_kib", "KiB", "lower", "tiering"),
		exact("tiering.refused_moves", "count", "lower", "tiering"),
		exact("tiering.virtual_s", "s", "lower", "tiering"),
		exact("tiering.migration_virtual_ms", "ms", "lower", "tiering"),

		// advisor_service.
		ms("advisor.engine_open_ms", "ms", "lower", "advisor"),
		ms("advisor.cold_sweep_s", "s", "lower", "advisor"),
		ms("advisor.warm_sweep_ms", "ms", "lower", "advisor"),
		ms("advisor.warm_cell_us", "us", "lower", "advisor"),
		ms("advisor.hit_qps", "1/s", "higher", "advisor"),
		ms("advisor.hit_p50_us", "us", "lower", "advisor"),
		ms("advisor.hit_p99_us", "us", "lower", "advisor"),
		ms("advisor.mixed_qps", "1/s", "higher", "advisor"),
		ms("advisor.miss_p50_ms", "ms", "lower", "advisor"),
		ms("advisor.eval_hit_us", "us", "lower", "advisor"),
		ms("advisor.server_overhead_us", "us", "lower", "advisor"),
		exact("advisor.sim_runs", "count", "lower", "advisor"),
		ms("advisor.cache_hits", "count", "higher", "advisor"),
		exact("advisor.cache_bytes", "bytes", "lower", "advisor"),
		ms("advisor.dedup_shared", "count", "higher", "advisor"),

		// the instrument itself.
		// ru_maxrss after the selected workload's rounds of a traced run.
		// An end-to-end metric until the benchmark went to one P: a
		// high-water mark over a small heap that the collector paces, it
		// then spread 9-15 % between runs of one commit (the heap's own
		// peak moved between 16 and 29 MB on advisor_service), too wide
		// to hold a bound.
		ms("process.peak_rss_mb", "MB", "lower", "benchmark"),
		ms("trace.overhead_frac", "ratio", "lower", "benchmark"),
		ms("trace.spans", "count", "lower", "benchmark"),
	)
}
