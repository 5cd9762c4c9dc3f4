package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/hibench"
	"repro/internal/memsim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// MetricCorrelation is Figure 5 for one workload: the Pearson correlation
// of each system-level metric with execution time, across runs on local
// memory (Tier 0) that vary the input size and seed.
type MetricCorrelation struct {
	Workload string
	// Corr maps metric name -> Pearson r with execution time (NaN when
	// the metric was constant across runs).
	Corr map[string]float64
	// Runs is the number of observations behind each coefficient.
	Runs int
}

// MetricCorrelation reproduces one column group of Figure 5. Seeds
// beyond the first vary the generated data so that correlations are
// estimated over a population of runs, like the paper's repeated
// deployments.
func (e *Evaluator) MetricCorrelation(workload string, seeds []int64) MetricCorrelation {
	return must(metricPlan(workload, seeds).run(e))
}

// metricPlan plans one workload's Tier 0 runs, size by seed.
func metricPlan(workload string, seeds []int64) plan[MetricCorrelation] {
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3}
	}
	var specs []hibench.RunSpec
	for _, size := range workloads.AllSizes() {
		for _, seed := range seeds {
			specs = append(specs, hibench.RunSpec{
				Workload: workload, Size: size, Tier: memsim.Tier0, Seed: seed,
			})
		}
	}
	return plan[MetricCorrelation]{specs: specs, fold: func(results []hibench.RunResult) MetricCorrelation {
		var durations []float64
		var snapshots []telemetry.RunMetrics
		for _, res := range results {
			durations = append(durations, res.Duration.Seconds())
			snapshots = append(snapshots, res.Metrics)
		}
		out := MetricCorrelation{
			Workload: workload,
			Corr:     make(map[string]float64),
			Runs:     len(durations),
		}
		for _, name := range telemetry.MetricNames() {
			xs := make([]float64, len(snapshots))
			for i, m := range snapshots {
				xs[i] = m.Get(name)
			}
			out.Corr[name] = stats.Pearson(xs, durations)
		}
		return out
	}}
}

// MeanAbsCorrelation averages |r| over metrics with defined correlations —
// the "how predictable is this workload from system events" score that
// separates bayes (near-linear) from pagerank (weak) in the paper.
func (m MetricCorrelation) MeanAbsCorrelation() float64 {
	metrics := make([]string, 0, len(m.Corr))
	for name := range m.Corr {
		metrics = append(metrics, name)
	}
	sort.Strings(metrics)
	var sum float64
	var n int
	for _, name := range metrics {
		if r := m.Corr[name]; !math.IsNaN(r) {
			sum += math.Abs(r)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Fig5Table renders metric-vs-time correlations for a set of workloads.
func Fig5Table(cols []MetricCorrelation) Table {
	t := Table{
		Title:   "Figure 5: Pearson correlation of system-level metrics with execution time (Tier 0)",
		Headers: []string{"metric"},
	}
	for _, c := range cols {
		t.Headers = append(t.Headers, c.Workload)
	}
	names := telemetry.MetricNames()
	sort.Strings(names)
	for _, name := range names {
		row := []string{name}
		for _, c := range cols {
			r := c.Corr[name]
			if math.IsNaN(r) {
				row = append(row, "n/a")
			} else {
				row = append(row, fmt.Sprintf("%+.2f", r))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// SpecCorrelation is Figure 6 for one (workload, size): the correlation of
// execution time across the four tiers with the tiers' hardware specs.
type SpecCorrelation struct {
	Workload string
	Size     workloads.Size
	// LatencyR is the Pearson r of execution time vs idle latency
	// (the paper finds it converges to +1).
	LatencyR float64
	// BandwidthR is the Pearson r of execution time vs bandwidth
	// (the paper finds it converges to -1).
	BandwidthR float64
}

// SpecCorrelation reproduces one cell group of Figure 6.
func (e *Evaluator) SpecCorrelation(workload string, size workloads.Size, seed int64) SpecCorrelation {
	return must(specPlan(workload, size, seed).run(e))
}

// specPlan plans one (workload, size) on every tier.
func specPlan(workload string, size workloads.Size, seed int64) plan[SpecCorrelation] {
	tiers := memsim.AllTiers()
	cells := make([]hibench.RunSpec, len(tiers))
	for i, tier := range tiers {
		cells[i] = hibench.RunSpec{Workload: workload, Size: size, Tier: tier, Seed: seed}
	}
	return plan[SpecCorrelation]{specs: cells, fold: func(results []hibench.RunResult) SpecCorrelation {
		specs := memsim.DefaultSpecs()
		var times, lats, bws []float64
		for _, res := range results {
			times = append(times, res.Duration.Seconds())
			lats = append(lats, specs[res.Spec.Tier].IdleLatencyNS)
			bws = append(bws, specs[res.Spec.Tier].BandwidthBytes)
		}
		return SpecCorrelation{
			Workload:   workload,
			Size:       size,
			LatencyR:   stats.Pearson(lats, times),
			BandwidthR: stats.Pearson(bws, times),
		}
	}}
}

// Fig6Table renders the spec correlations.
func Fig6Table(cells []SpecCorrelation) Table {
	t := Table{
		Title:   "Figure 6: correlation of execution time with tier latency and bandwidth",
		Headers: []string{"workload", "size", "r(latency)", "r(bandwidth)"},
	}
	for _, c := range cells {
		t.AddRow(c.Workload, c.Size.String(),
			fmt.Sprintf("%+.3f", c.LatencyR), fmt.Sprintf("%+.3f", c.BandwidthR))
	}
	return t
}
