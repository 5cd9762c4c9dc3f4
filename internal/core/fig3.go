package core

import (
	"fmt"
	"math"

	"repro/internal/hibench"
	"repro/internal/memsim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// DefaultMBACaps are the Memory Bandwidth Allocation throttle levels swept
// in Figure 3 (fractions of peak bandwidth).
func DefaultMBACaps() []float64 { return []float64{1.0, 0.8, 0.6, 0.4, 0.2, 0.1} }

// MBAPoint is one violin of Figure 3: a workload under one bandwidth cap,
// summarizing execution time across the input sizes.
type MBAPoint struct {
	Workload string
	Cap      float64
	Violin   stats.Violin
}

// MBASweep is the Figure 3 dataset.
type MBASweep struct {
	Tier   memsim.TierID
	Caps   []float64
	Points []MBAPoint
}

// MBASweep reproduces Figure 3: for every workload and bandwidth cap,
// run all input sizes with the default Spark configuration and summarize
// the execution-time distribution. The paper runs this on the NVM tier to
// ask whether bandwidth or latency dominates.
func (e *Evaluator) MBASweep(names []string, caps []float64, tier memsim.TierID, seed int64) *MBASweep {
	return must(mbaPlan(names, caps, tier, seed).run(e))
}

// mbaPlan plans the sweep, workload by cap by size.
func mbaPlan(names []string, caps []float64, tier memsim.TierID, seed int64) plan[*MBASweep] {
	if names == nil {
		names = workloads.Names()
	}
	if caps == nil {
		caps = DefaultMBACaps()
	}
	sizes := workloads.AllSizes()
	var specs []hibench.RunSpec
	for _, w := range names {
		for _, cap := range caps {
			for _, size := range sizes {
				specs = append(specs, hibench.RunSpec{
					Workload: w, Size: size, Tier: tier,
					BandwidthCap: cap, Seed: seed,
				})
			}
		}
	}
	return plan[*MBASweep]{specs: specs, fold: func(results []hibench.RunResult) *MBASweep {
		sweep := &MBASweep{Tier: tier, Caps: caps}
		for _, w := range names {
			for _, cap := range caps {
				durations := make([]float64, len(sizes))
				for i := range sizes {
					durations[i] = results[i].Duration.Seconds()
				}
				results = results[len(sizes):]
				sweep.Points = append(sweep.Points, MBAPoint{
					Workload: w,
					Cap:      cap,
					Violin:   stats.NewViolin(durations),
				})
			}
		}
		return sweep
	}}
}

// point returns the sweep point for (workload, cap).
func (s *MBASweep) point(w string, cap float64) MBAPoint {
	for _, p := range s.Points {
		if p.Workload == w && p.Cap == cap {
			return p
		}
	}
	panic(fmt.Sprintf("core: missing MBA point %s@%.2f", w, cap))
}

// Flatness returns, per workload, the maximum relative deviation of the
// mean execution time across caps from the uncapped mean. The paper's
// Figure 3 finding is that distributions do not move as the cap tightens
// (bandwidth is not saturated), i.e. flatness stays small.
func (s *MBASweep) Flatness() map[string]float64 {
	out := make(map[string]float64)
	seen := map[string]bool{}
	for _, p := range s.Points {
		if seen[p.Workload] {
			continue
		}
		seen[p.Workload] = true
		base := s.point(p.Workload, 1.0).Violin.Mean
		worst := 0.0
		for _, cap := range s.Caps {
			m := s.point(p.Workload, cap).Violin.Mean
			worst = max(worst, math.Abs((m-base)/base))
		}
		out[p.Workload] = worst
	}
	return out
}

// Table renders the Figure 3 violin summaries.
func (s *MBASweep) Table() Table {
	t := Table{
		Title:   fmt.Sprintf("Figure 3: execution time [s] under MBA bandwidth caps (%s)", s.Tier),
		Headers: []string{"workload", "cap %", "min", "median", "mean", "max", "std"},
	}
	for _, p := range s.Points {
		v := p.Violin
		t.AddRow(p.Workload, fmt.Sprintf("%.0f", p.Cap*100),
			F(v.Min), F(v.Med), F(v.Mean), F(v.Max), F(v.Std))
	}
	return t
}
