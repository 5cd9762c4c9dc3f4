package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/hibench"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// benchRun executes one experiment cell whose spec is known-valid,
// failing the benchmark on an unexpected error. The benchmarks repeat
// their specs, so through hibench.Run all but the first iteration would
// read the pages its slot kept; a cold store of the run's own keeps every
// iteration measuring generation and lda's sweeps.
func benchRun(b *testing.B, spec hibench.RunSpec) hibench.RunResult {
	b.Helper()
	res, err := hibench.RunShared(spec, nil)
	if err != nil {
		b.Fatalf("run %s: %v", spec, err)
	}
	return res
}

// ---------------------------------------------------------------------------
// Table I — idle latency and bandwidth microbenchmarks per tier.
// ---------------------------------------------------------------------------

func BenchmarkTableIProbe(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := numa.ProbeAllTiers()
		if len(results) != 4 {
			b.Fatal("probe did not cover all tiers")
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 2 (top) — execution time per workload/size/tier. One sub-benchmark
// per workload at small size sweeping all four tiers, reporting the Tier 3
// vs Tier 0 slowdown as a custom metric.
// ---------------------------------------------------------------------------

func BenchmarkFig2Time(b *testing.B) {
	for _, w := range workloads.Names() {
		w := w
		b.Run(w, func(b *testing.B) {
			var slowdown float64
			for i := 0; i < b.N; i++ {
				var t0, t3 float64
				for _, tier := range memsim.AllTiers() {
					res := benchRun(b, hibench.RunSpec{
						Workload: w, Size: workloads.Small, Tier: tier,
					})
					switch tier {
					case memsim.Tier0:
						t0 = res.Duration.Seconds()
					case memsim.Tier3:
						t3 = res.Duration.Seconds()
					}
				}
				slowdown = t3 / t0
			}
			b.ReportMetric(slowdown, "T3/T0")
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 2 (middle) — NVM media access counters on the Tier 2 runs.
// ---------------------------------------------------------------------------

func BenchmarkFig2Accesses(b *testing.B) {
	var reads, writes int64
	for i := 0; i < b.N; i++ {
		reads, writes = 0, 0
		for _, w := range workloads.Names() {
			res := benchRun(b, hibench.RunSpec{
				Workload: w, Size: workloads.Small, Tier: memsim.Tier2,
			})
			reads += res.Metrics.MediaReads
			writes += res.Metrics.MediaWrites
		}
	}
	b.ReportMetric(float64(reads), "media-reads")
	b.ReportMetric(float64(writes), "media-writes")
}

// ---------------------------------------------------------------------------
// Figure 2 (bottom) — DRAM vs DCPM device-group energy.
// ---------------------------------------------------------------------------

func BenchmarkFig2Energy(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		dram := benchRun(b, hibench.RunSpec{
			Workload: "bayes", Size: workloads.Small, Tier: memsim.Tier0,
		}).DRAMEnergy.PerDIMMJ
		dcpm := benchRun(b, hibench.RunSpec{
			Workload: "bayes", Size: workloads.Small, Tier: memsim.Tier2,
		}).DCPMEnergy.PerDIMMJ
		ratio = dcpm / dram
	}
	b.ReportMetric(ratio, "DCPM/DRAM-J")
}

// ---------------------------------------------------------------------------
// Figure 3 — execution time under MBA bandwidth caps (violin summaries).
// ---------------------------------------------------------------------------

func BenchmarkFig3MBA(b *testing.B) {
	var flat float64
	for i := 0; i < b.N; i++ {
		sweep := core.NewEvaluator(nil).MBASweep([]string{"pagerank", "als"},
			[]float64{1.0, 0.6, 0.4}, memsim.Tier2, 1)
		for _, dev := range sweep.Flatness() {
			if dev > flat {
				flat = dev
			}
		}
	}
	b.ReportMetric(flat*100, "max-drift-%")
}

// ---------------------------------------------------------------------------
// Figure 4 — executor/core scaling grids on the NVM tier.
// ---------------------------------------------------------------------------

func BenchmarkFig4Scaling(b *testing.B) {
	for _, w := range core.Fig4Workloads() {
		w := w
		b.Run(w, func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				grid := core.NewEvaluator(nil).ScalingGrid(w, workloads.Small, memsim.Tier2,
					[]int{1, 4}, []int{10, 40}, 1)
				worst = grid.WorstSlowdown()
			}
			b.ReportMetric(worst, "worst-slowdown")
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 5 — system-metric / execution-time correlation.
// ---------------------------------------------------------------------------

func BenchmarkFig5Correlation(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		mc := core.NewEvaluator(nil).MetricCorrelation("bayes", []int64{1, 2})
		mean = mc.MeanAbsCorrelation()
	}
	b.ReportMetric(mean, "mean-abs-r")
}

// ---------------------------------------------------------------------------
// Figure 6 — hardware-spec / execution-time correlation.
// ---------------------------------------------------------------------------

func BenchmarkFig6Correlation(b *testing.B) {
	var lat, bw float64
	for i := 0; i < b.N; i++ {
		c := core.NewEvaluator(nil).SpecCorrelation("pagerank", workloads.Small, 1)
		lat, bw = c.LatencyR, c.BandwidthR
	}
	b.ReportMetric(lat, "r-latency")
	b.ReportMetric(bw, "r-bandwidth")
}

// ---------------------------------------------------------------------------
// §IV-F — tier advisor training + held-out evaluation.
// ---------------------------------------------------------------------------

func BenchmarkTierAdvisor(b *testing.B) {
	var mape float64
	for i := 0; i < b.N; i++ {
		adv := core.TierAdvisor{Ev: core.NewEvaluator(nil)}
		err := adv.Train([]string{"sort", "bayes"}, 1)
		if err == nil {
			mape, err = adv.Evaluate("pagerank", 1)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mape*100, "MAPE-%")
}

// ---------------------------------------------------------------------------
// Ablations — design choices DESIGN.md calls out. Each ablation flips one
// mechanism off and reports the headline metric it moves.
// ---------------------------------------------------------------------------

// Without the DCPM write asymmetry, the write-heavy lda workload loses its
// outsized Tier 2 penalty (Takeaway 3's mechanism).
func BenchmarkAblationWriteAsymmetry(b *testing.B) {
	run := func(writeFactor float64) float64 {
		specs := memsim.DefaultSpecs()
		specs[memsim.Tier2].WriteLatencyFactor = writeFactor
		k := sim.NewKernel()
		sys := memsim.NewSystemWithSpecs(k, specs)
		pool := executor.NewPool(1, 40, numa.BindingForTier(memsim.Tier2), sys, 0)
		var p executor.Profile
		p.Tiers[memsim.Tier2].StallLines[memsim.Write] = 200_000
		res := executor.SimulateStage(k, pool, []executor.SimTask{{Profile: p, ExecID: 0}}, executor.CostModel{})
		return res.Makespan.Seconds()
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = run(2.6) / run(1.0)
	}
	b.ReportMetric(ratio, "asym/sym")
}

// Without loaded-latency contention, parallel tasks see idle latency and
// the executor-scaling penalty of Takeaway 6 vanishes.
func BenchmarkAblationContention(b *testing.B) {
	run := func(contention float64) float64 {
		specs := memsim.DefaultSpecs()
		specs[memsim.Tier2].ContentionFactor = contention
		k := sim.NewKernel()
		sys := memsim.NewSystemWithSpecs(k, specs)
		pool := executor.NewPool(1, 40, numa.BindingForTier(memsim.Tier2), sys, 0)
		var tasks []executor.SimTask
		for t := 0; t < 40; t++ {
			var p executor.Profile
			p.Tiers[memsim.Tier2].StallLines[memsim.Read] = 50_000
			tasks = append(tasks, executor.SimTask{Profile: p, ExecID: 0})
		}
		return executor.SimulateStage(k, pool, tasks, executor.CostModel{}).Makespan.Seconds()
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = run(0.11) / run(0)
	}
	b.ReportMetric(ratio, "loaded/idle")
}

// ---------------------------------------------------------------------------
// Engine micro-benchmarks — raw cost of the core moving parts.
// ---------------------------------------------------------------------------

func BenchmarkEngineShuffleSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchRun(b, hibench.RunSpec{
			Workload: "repartition", Size: workloads.Small, Tier: memsim.Tier0,
		})
	}
}

func BenchmarkDESStage(b *testing.B) {
	cost := executor.DefaultCostModel()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		sys := memsim.NewSystem(k)
		pool := executor.NewPool(4, 10, numa.BindingForTier(memsim.Tier2), sys, 0)
		tasks := make([]executor.SimTask, 0, 80)
		for t := 0; t < 80; t++ {
			var p executor.Profile
			p.CPUNS = 1e6
			p.Tiers[memsim.Tier2].StallLines[memsim.Read] = 1000
			p.Tiers[memsim.Tier2].SeqBytes[memsim.Read] = 1 << 20
			tasks = append(tasks, executor.SimTask{Profile: p, ExecID: t % 4})
		}
		executor.SimulateStage(k, pool, tasks, cost)
	}
}

// ---------------------------------------------------------------------------
// §IV-G extensions — placement, interleave, what-if.
// ---------------------------------------------------------------------------

func BenchmarkPlacementStudy(b *testing.B) {
	var mixed float64
	for i := 0; i < b.N; i++ {
		study, err := core.NewEvaluator(nil).PlacementStudy("pagerank", workloads.Small, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range study.Points {
			if p.Name == "heap-DRAM/shuffle-NVM" {
				mixed = float64(p.Duration) / float64(study.Points[0].Duration) // over all-DRAM
			}
		}
	}
	b.ReportMetric(mixed, "mixed-slowdown")
}

func BenchmarkInterleaveSweep(b *testing.B) {
	var end float64
	for i := 0; i < b.N; i++ {
		points, err := core.NewEvaluator(nil).InterleaveSweep("bayes", workloads.Small, []float64{0, 0.5, 1}, 1)
		if err != nil {
			b.Fatal(err)
		}
		end = points[len(points)-1].Slowdown
	}
	b.ReportMetric(end, "all-NVM-slowdown")
}

func BenchmarkWhatIfCXL(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		results, err := core.NewEvaluator(nil).WhatIf([]string{"pagerank"}, workloads.Small, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Scenario == "cxl-dram" {
				gap = r.Slowdown
			}
		}
	}
	b.ReportMetric(gap, "cxl-slowdown")
}

// ---------------------------------------------------------------------------
// Engine and substrate micro-benchmarks.
// ---------------------------------------------------------------------------

func BenchmarkKernelEventThroughput(b *testing.B) {
	k := sim.NewKernel()
	for i := 0; i < b.N; i++ {
		k.After(sim.Duration(i%1000)+1, func(sim.Time) {})
	}
	k.Run()
}

func BenchmarkSharedServerFlows(b *testing.B) {
	k := sim.NewKernel()
	s := sim.NewSharedServer(k, "bench", 1e9)
	for i := 0; i < b.N; i++ {
		s.Submit(float64(i%4096)+1, nil)
		if i%64 == 63 {
			k.Run()
		}
	}
	k.Run()
}

func BenchmarkMemsimRecordBurst(b *testing.B) {
	sys := memsim.NewSystem(sim.NewKernel())
	tier := sys.Tier(memsim.Tier2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tier.RecordBurst(memsim.Read, memsim.Random, 4096, 32)
	}
}

func BenchmarkRDDWordCountPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchRun(b, hibench.RunSpec{
			Workload: "bayes", Size: workloads.Tiny, Tier: memsim.Tier0,
		})
	}
}

func BenchmarkStatsPearson(b *testing.B) {
	xs := make([]float64, 4096)
	ys := make([]float64, 4096)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = float64(i * i % 977)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.Pearson(xs, ys)
	}
}

func BenchmarkTierProbeLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := memsim.NewSystem(sim.NewKernel())
		numa.ProbeIdleLatency(sys, memsim.Tier2, 1024)
	}
}

// ---------------------------------------------------------------------------
// Two-phase stage execution — sequential vs parallel phase-1 compute on the
// same workload. Virtual time is identical by construction (asserted below);
// the benchmark measures the wall-clock win from computing task data on real
// cores. On a single-core runner the two are expected to tie.
// ---------------------------------------------------------------------------

func benchStageWorkers(b *testing.B, workers int) {
	spec := hibench.RunSpec{
		Workload: "sort", Size: workloads.Large, Tier: memsim.Tier0,
		TaskParallelism: workers,
	}
	ref := benchRun(b, hibench.RunSpec{
		Workload: "sort", Size: workloads.Large, Tier: memsim.Tier0,
		TaskParallelism: 1,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := benchRun(b, spec)
		if res.Duration != ref.Duration {
			b.Fatalf("virtual time diverged: %v workers %v, sequential %v",
				workers, res.Duration, ref.Duration)
		}
	}
}

func BenchmarkStageSequential(b *testing.B) { benchStageWorkers(b, 1) }

// BenchmarkStageParallel uses all available cores (TaskParallelism 0 selects
// runtime.GOMAXPROCS(0)).
func BenchmarkStageParallel(b *testing.B) { benchStageWorkers(b, 0) }
