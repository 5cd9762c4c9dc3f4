package core

import (
	"fmt"
	"math"

	"repro/internal/hibench"
	"repro/internal/memsim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// TierAdvisor is the §IV-F direction made concrete: a linear model that
// predicts a workload's execution time on any memory tier from (i) the
// tier's hardware specification and (ii) system-level metrics observed on
// a single local-memory (Tier 0) profiling run. The paper's Takeaway 8 —
// specs and system events correlate strongly with runtime — is what makes
// this model work.
type TierAdvisor struct {
	// Ev evaluates the training and scoring cells and must be set. repro
	// advisor passes one over the advisor engine's cached runner, so
	// repeated training sweeps cost one simulation per distinct cell.
	Ev *Evaluator

	fit     stats.LinearFit
	trained bool
}

// observation is one training or scoring point: a workload's Tier 0
// profiling run at one size, and its observed duration on one tier.
type observation struct {
	workload string
	profile  hibench.RunResult
	tier     memsim.TierID
	x        []float64 // advisorFeatures(profile, tier's spec)
	y        float64   // observed duration [s]
}

// observe evaluates, for every workload and size, the Tier 0 profiling
// run followed by one run per tier, and returns the observations in that
// order.
func (e *Evaluator) observe(names []string, seed int64) ([]observation, error) {
	return observePlan(names, seed).run(e)
}

// observePlan plans observe's queries.
func observePlan(names []string, seed int64) plan[[]observation] {
	tiers := memsim.AllTiers()
	var qs []hibench.Query
	for _, w := range names {
		for _, size := range workloads.AllSizes() {
			for _, tier := range append([]memsim.TierID{memsim.Tier0}, tiers...) {
				qs = append(qs, hibench.Query{Workload: w, Size: size.String(),
					Placement: fmt.Sprintf("tier:%d", int(tier)), Seed: seed})
			}
		}
	}
	return plan[[]observation]{qs: qs, fold: func(results []hibench.RunResult) []observation {
		specs := memsim.DefaultSpecs()
		var out []observation
		for _, w := range names {
			for range workloads.AllSizes() {
				profile := results[0]
				for i, tier := range tiers {
					out = append(out, observation{
						workload: w,
						profile:  profile,
						tier:     tier,
						x:        advisorFeatures(profile, specs[tier]),
						y:        results[1+i].Duration.Seconds(),
					})
				}
				results = results[1+len(tiers):]
			}
		}
		return out
	}}
}

// advisorFeatures builds the model's feature vector: the Tier 0 run's
// duration anchors the prediction, and its media counters interacted with
// the target tier's latency/bandwidth specs model the tier delta.
func advisorFeatures(profile hibench.RunResult, tier memsim.TierSpec) []float64 {
	m := profile.Metrics
	lat := tier.IdleLatencyNS
	invBW := 1e9 / tier.BandwidthBytes
	wLat := lat * tier.WriteLatencyFactor
	return []float64{
		profile.Duration.Seconds(),               // the Tier 0 anchor
		float64(m.MediaReads) * lat / 1e9,        // read stall mass on the target tier [s]
		float64(m.MediaWrites) * wLat / 1e9,      // write stall mass (asymmetric media) [s]
		float64(m.MediaReadBytes) * invBW / 1e9,  // read transfer time [s]
		float64(m.MediaWriteBytes) * invBW / 1e9, // write transfer time [s]
	}
}

// Train fits the advisor on the given workloads: each contributes one
// Tier 0 profiling run and one observed duration per tier.
func (a *TierAdvisor) Train(names []string, seed int64) error {
	obs, err := a.Ev.observe(names, seed)
	if err != nil {
		return err
	}
	var xs [][]float64
	var ys []float64
	for _, o := range obs {
		xs = append(xs, o.x)
		ys = append(ys, o.y)
	}
	a.fit = stats.FitOLS(xs, ys)
	a.trained = true
	return nil
}

// R2 returns the training fit quality.
func (a *TierAdvisor) R2() float64 {
	a.mustBeTrained()
	return a.fit.R2
}

// Predict estimates the execution time (seconds) of a workload on a tier
// from its Tier 0 profiling run. Predictions are floored at the profiled
// Tier 0 time: no tier is faster than local DRAM, and the floor keeps
// linear extrapolation physical.
func (a *TierAdvisor) Predict(profile hibench.RunResult, tier memsim.TierID) float64 {
	a.mustBeTrained()
	spec := memsim.DefaultSpecs()[tier]
	return max(a.fit.Predict(advisorFeatures(profile, spec)), profile.Duration.Seconds())
}

// Recommend returns the fastest predicted tier and its predicted time,
// given a Tier 0 profile. Tiers are considered in order, and a later tier
// must predict at least 2% faster to displace the incumbent, so model
// noise cannot unseat an earlier (cheaper-to-reach) tier on a spurious
// margin.
func (a *TierAdvisor) Recommend(profile hibench.RunResult) (memsim.TierID, float64) {
	a.mustBeTrained()
	best := memsim.Tier0
	bestT := math.Inf(1)
	for _, tier := range memsim.AllTiers() {
		if t := a.Predict(profile, tier); t < bestT*0.98 {
			best, bestT = tier, t
		}
	}
	return best, bestT
}

// Evaluate computes the mean absolute percentage error of the advisor on a
// held-out workload across all sizes and tiers.
func (a *TierAdvisor) Evaluate(workload string, seed int64) (float64, error) {
	a.mustBeTrained()
	obs, err := a.Ev.observe([]string{workload}, seed)
	if err != nil {
		return 0, err
	}
	var ape []float64
	for _, o := range obs {
		ape = append(ape, math.Abs(a.Predict(o.profile, o.tier)-o.y)/o.y)
	}
	return stats.Mean(ape), nil
}

func (a *TierAdvisor) mustBeTrained() {
	if !a.trained {
		panic(fmt.Sprintf("core: %T used before Train", a))
	}
}
