package main

import (
	"fmt"
	"strings"

	"repro/internal/hibench"
	"repro/internal/tiering"
	"repro/internal/workloads"
)

var fracs = []float64{0.10, 0.25, 0.50}

// parsePolicies resolves the -policies flag: a comma-separated list of
// dynamic policy kinds, empty for all of them (the static baseline always
// runs and cannot be listed).
func parsePolicies(s string) ([]tiering.PolicyKind, error) {
	if s == "" {
		var all []tiering.PolicyKind
		for _, p := range tiering.AllPolicies() {
			if p != tiering.Static {
				all = append(all, p)
			}
		}
		return all, nil
	}
	return list(s, func(part string) (tiering.PolicyKind, error) {
		p := tiering.PolicyKind(part)
		if p == tiering.Static {
			return "", fmt.Errorf("static is the implicit baseline, not a sweep policy")
		}
		if !p.Valid() {
			return "", fmt.Errorf("unknown policy %q (have %v)", p, tiering.AllPolicies())
		}
		return p, nil
	})
}

// tierCell is one measured sweep point.
type tierCell struct {
	policy tiering.PolicyKind
	frac   float64 // 0 for static
	budget int64   // 0 for static
	res    hibench.RunResult
}

// tierSweep is one workload's column of cells, static first.
type tierSweep struct {
	workload  string
	footprint int64
	cells     []tierCell
}

// autotier sweeps the dynamic tiering policies across the HiBench
// workloads under a DRAM-constrained cache placement: heap and shuffle on
// local DRAM, the RDD cache on remote DCPM, and a DRAM cache budget of a
// fraction of each workload's measured cache footprint. For every workload
// it first verifies that the static policy reproduces the untiered run
// bit-for-bit, then runs the selected dynamic policies (default
// {watermark, bandwidth-aware, age, forecast}) x the budget fractions and
// reports end-to-end runtime against the static baseline. Wherever the
// forecast policy loses to static, the report includes its per-epoch
// bucketed heatmaps as evidence of what the forecaster saw.
func autotier(c *ctx) func() error {
	size, seed, deliver := c.size("small"), c.seed(1), c.output()
	policies := flagOf(c, "policies", "", "comma-separated dynamic policies to sweep (default: all)", parsePolicies)
	return func() error {
		var sweeps []tierSweep
		for _, w := range workloads.Names() {
			s, err := sweepWorkload(w, *size, *seed, *policies)
			if err != nil {
				return err
			}
			sweeps = append(sweeps, s)
			fmt.Fprintf(c.stderr, "autotier: %s/%s done (footprint %d B, %d cells)\n",
				w, *size, s.footprint, len(s.cells))
		}
		report := renderSweeps(sweeps, size.String(), c.generatedBy("autotier.md", "size", "seed", "policies"))
		path, err := deliver(report)
		if path == "" {
			fmt.Fprint(c.stdout, report)
		} else if err == nil {
			fmt.Fprintf(c.stderr, "autotier: wrote %s\n", path)
		}
		return err
	}
}

// staticBaseline runs spec untiered and under the static policy, checks
// that the two agree — the static policy must be inert — and returns the
// static run with the cache footprint it measured.
func staticBaseline(spec hibench.RunSpec) (st hibench.RunResult, footprint int64, err error) {
	plain, err := hibench.Run(spec)
	if err != nil {
		return st, 0, err
	}
	if st, err = hibench.Run(tiered(spec, tiering.Static, 0)); err != nil {
		return st, 0, err
	}
	switch {
	case plain.Duration != st.Duration:
		err = fmt.Errorf("duration %v vs %v", plain.Duration, st.Duration)
	case plain.Metrics != st.Metrics:
		err = fmt.Errorf("metrics diverged")
	case plain.NVMCounters != st.NVMCounters:
		err = fmt.Errorf("NVM counters diverged")
	}
	if err != nil {
		return st, 0, fmt.Errorf("static policy is not inert: %w", err)
	}
	return st, st.Engine["tiering.occupancy.tier3"], nil
}

// sweepWorkload measures one workload: untiered, static (checked inert),
// then every selected dynamic policy x budget fraction.
func sweepWorkload(workload string, size workloads.Size, seed int64, policies []tiering.PolicyKind) (tierSweep, error) {
	spec := cacheOnRemoteDCPM(workload, size, seed)
	st, footprint, err := staticBaseline(spec)
	if err != nil {
		return tierSweep{}, fmt.Errorf("%s/%s: %w", workload, size, err)
	}
	s := tierSweep{
		workload:  workload,
		footprint: footprint,
		cells:     []tierCell{{policy: tiering.Static, res: st}},
	}
	if s.footprint == 0 {
		return s, nil // nothing cached: dynamic policies have nothing to manage
	}
	for _, frac := range fracs {
		budget := int64(frac * float64(s.footprint))
		if budget < 1 {
			budget = 1
		}
		for _, pol := range policies {
			res, err := hibench.Run(tiered(spec, pol, budget))
			if err != nil {
				return tierSweep{}, err
			}
			s.cells = append(s.cells, tierCell{policy: pol, frac: frac, budget: budget, res: res})
		}
	}
	return s, nil
}

// renderSweeps produces the markdown report.
func renderSweeps(sweeps []tierSweep, size, generatedBy string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Online tiering sweep\n\n")
	b.WriteString(generatedBy)
	b.WriteString(`Placement: heap and shuffle on Tier 0 (local DRAM), the RDD cache on
Tier 3 (remote DCPM) — the DRAM-constrained deployment where cached data
overflows to the far NVDIMM group. The static policy keeps every cached
block on remote DCPM (and is verified bit-identical to running without
the tiering engine at all). Dynamic policies land new cache blocks on DRAM
under a budget of frac x the workload's measured cache footprint and
migrate blocks between the tiers at stage-boundary epochs; migration
pays real costs (source-tier read, destination-tier write with 256 B
XPLine write amplification, per-block remap CPU), so a policy can lose.

`)
	for _, s := range sweeps {
		fmt.Fprintf(&b, "## %s/%s", s.workload, size)
		if s.footprint == 0 {
			b.WriteString("\n\nNo cached data: the tiering engine has nothing to manage; ")
			fmt.Fprintf(&b, "static runtime %s.\n\n", s.cells[0].res.Duration)
			continue
		}
		fmt.Fprintf(&b, " (cache footprint %s)\n\n", kib(s.footprint))
		b.WriteString("| policy | DRAM frac | budget | runtime | vs static | moves | moved | migration time |\n")
		b.WriteString("|---|---|---|---|---|---|---|---|\n")
		st := s.cells[0].res
		for _, c := range s.cells {
			if c.policy == tiering.Static {
				fmt.Fprintf(&b, "| static | – | – | %s | – | 0 | 0 | 0 |\n", st.Duration)
				continue
			}
			fmt.Fprintf(&b, "| %s | %.2f | %s | %s | %+.2f%% | %d | %s | %.2fms |\n",
				c.policy, c.frac, kib(c.budget), c.res.Duration, delta(st, c.res),
				c.res.Tiering.MigratedBlocks, kib(c.res.Tiering.MigratedBytes),
				c.res.Tiering.MigrationNS/1e6)
		}
		b.WriteString("\n")
		b.WriteString(forecastEvidence(s))
	}
	b.WriteString(takeaways(sweeps, size))
	return b.String()
}

// forecastEvidence renders the per-epoch bucketed heatmaps of the worst
// forecast cell when the forecast policy lost to static on the workload —
// the evidence trail for why the predicted-heat screens did not prevent
// the regression. Epochs are sampled evenly when there are many.
func forecastEvidence(s tierSweep) string {
	st := s.cells[0].res
	var worst *tierCell
	for i := range s.cells {
		c := &s.cells[i]
		if c.policy != tiering.Forecast || delta(st, c.res) <= 0 {
			continue
		}
		if worst == nil || delta(st, c.res) > delta(st, worst.res) {
			worst = c
		}
	}
	if worst == nil || len(worst.res.Heatmaps) == 0 {
		return ""
	}
	var b strings.Builder
	lossMS := (float64(worst.res.Duration) - float64(st.Duration)) / 1e6
	fmt.Fprintf(&b, "Forecast lost %+.2f%% at frac %.2f — %.2fms against %.2fms spent migrating:\nthe promoted blocks cooled before their cheaper re-reads could pay the\nmigration back. The per-epoch heatmaps (blocks/bytes per class, cold to\nblazing) show the warm class the forecaster chased:\n\n",
		delta(st, worst.res), worst.frac, lossMS, worst.res.Tiering.MigrationNS/1e6)
	maps := worst.res.Heatmaps
	step := 1
	if len(maps) > 8 {
		step = (len(maps) + 7) / 8
	}
	for i := 0; i < len(maps); i += step {
		fmt.Fprintf(&b, "- epoch %d @ %s: %s\n", maps[i].Epoch, maps[i].At, maps[i].Map)
	}
	if last := len(maps) - 1; last%step != 0 {
		fmt.Fprintf(&b, "- epoch %d @ %s: %s\n", maps[last].Epoch, maps[last].At, maps[last].Map)
	}
	b.WriteString("\n")
	return b.String()
}

// delta is the dynamic run's end-to-end runtime change vs static, in
// percent (negative = dynamic wins).
func delta(static, dyn hibench.RunResult) float64 {
	return (float64(dyn.Duration) - float64(static.Duration)) / float64(static.Duration) * 100
}

func kib(b int64) string {
	if b < 1<<10 {
		return fmt.Sprintf("%d B", b)
	}
	return fmt.Sprintf("%d KiB", b>>10)
}

// takeaways scans the sweep for the headline outcomes: where the
// watermark policy beats static end-to-end, where migration overhead
// makes a dynamic policy worse, and where the bandwidth throttle earns
// its keep.
func takeaways(sweeps []tierSweep, size string) string {
	var wins, losses, throttled, sidesteps []string
	for _, s := range sweeps {
		if s.footprint == 0 {
			continue
		}
		st := s.cells[0].res
		var bestWM, worst float64
		var bestWMFrac, worstFrac float64
		var worstPol tiering.PolicyKind
		var bestThrottleGain float64
		var throttleFrac float64
		var worstWM, worstForecast float64
		var sawForecast bool
		for _, c := range s.cells[1:] {
			d := delta(st, c.res)
			if c.policy == tiering.Watermark && d < bestWM {
				bestWM, bestWMFrac = d, c.frac
			}
			if c.policy == tiering.Watermark && d > worstWM {
				worstWM = d
			}
			if c.policy == tiering.Forecast {
				sawForecast = true
				if d > worstForecast {
					worstForecast = d
				}
			}
			if d > worst {
				worst, worstFrac, worstPol = d, c.frac, c.policy
			}
			if c.policy == tiering.BandwidthAware {
				for _, w := range s.cells[1:] {
					if w.policy == tiering.Watermark && w.frac == c.frac {
						if gain := delta(st, w.res) - d; gain > bestThrottleGain {
							bestThrottleGain, throttleFrac = gain, c.frac
						}
					}
				}
			}
		}
		if bestWM < 0 {
			wins = append(wins, fmt.Sprintf("**%s/%s** (%+.2f%% at frac %.2f)",
				s.workload, size, bestWM, bestWMFrac))
		}
		if worst > 0 {
			losses = append(losses, fmt.Sprintf("**%s/%s** (%s %+.2f%% at frac %.2f)",
				s.workload, size, worstPol, worst, worstFrac))
		}
		if bestThrottleGain > 0.1 {
			throttled = append(throttled, fmt.Sprintf("%s/%s (%.2f points at frac %.2f)",
				s.workload, size, bestThrottleGain, throttleFrac))
		}
		if sawForecast && worstWM > 1 && (worstForecast <= 0 || worstForecast < worstWM/4) {
			sidesteps = append(sidesteps, fmt.Sprintf("**%s/%s** (watermark %+.2f%% worst, forecast %+.2f%% worst)",
				s.workload, size, worstWM, worstForecast))
		}
	}
	var b strings.Builder
	b.WriteString("## Takeaways\n\n")
	if len(wins) > 0 {
		fmt.Fprintf(&b, "- **Watermark beats static end-to-end** on %s: landing new\n  blocks on DRAM and demoting only the cold overflow recovers most of the\n  remote-DCPM cache penalty.\n", strings.Join(wins, ", "))
	} else {
		b.WriteString("- Watermark never beat static in this sweep.\n")
	}
	if len(losses) > 0 {
		fmt.Fprintf(&b, "- **Migration overhead makes a dynamic policy worse** on %s:\n  the demoted bytes (remote-DCPM writes with XPLine amplification, plus\n  per-block remap) never pay back within the run.\n", strings.Join(losses, ", "))
	} else {
		b.WriteString("- No configuration lost to static in this sweep.\n")
	}
	if len(throttled) > 0 {
		fmt.Fprintf(&b, "- **The bandwidth throttle earns its keep** on %s:\n  capping migration traffic per epoch defers (and often avoids) demotions,\n  trimming the watermark policy's worst cases without giving up its wins.\n", strings.Join(throttled, ", "))
	}
	if len(sidesteps) > 0 {
		fmt.Fprintf(&b, "- **Forecast contains write churn** on %s:\n  by leaving the landing tier alone and screening promotions on predicted\n  write heat, the forecaster avoids nearly all of the demote-repromote\n  cycle that hurts the eager landing policies there.\n", strings.Join(sidesteps, ", "))
	}
	return b.String()
}
