package heat

import "math"

// phaseTolerance is the maximum normalized mismatch (Σ|T(t)−T(t−p)| /
// Σ(|T(t)|+|T(t−p)|)) under which a candidate period is accepted. 5%
// keeps the detector quiet on aperiodic series while iterative workloads
// (pagerank sweeps, Gibbs sampling) settle well below it.
const phaseTolerance = 0.05

// maxPhasePeriod bounds the candidate periods searched.
const maxPhasePeriod = 8

// PhaseForecaster detects iteration-periodic behavior — the
// phase-shifting access patterns of iterative workloads, where each
// sweep touches the same block population in the same order — and
// predicts the next epoch by replaying the same point of the previous
// cycle. Detection runs on the aggregate heat series (cheap, and robust
// to block identity churn): a period p is accepted when the series
// matches itself shifted by p within phaseTolerance over at least two
// full cycles. With an accepted period, each block's prediction is its
// recorded sample from p−1 epochs back (the epoch that preceded the
// upcoming phase point last cycle); blocks with no record there keep the
// incoming prediction. Without a detectable period the forecaster is the
// identity.
type PhaseForecaster struct{}

// ForecastInto implements Forecaster.
func (PhaseForecaster) ForecastInto(dst []Sample, history *History, cur []Sample) ([]Sample, bool) {
	p := detectPeriod(history)
	if p == 0 {
		return cur, false
	}
	replay := history.At(p - 1)
	if replay == nil {
		return cur, false
	}
	out := resized(dst, len(cur))
	j, ok := 0, false
	for i, s := range cur {
		out[i] = s
		if j, ok = Seek(replay, j, s.ID); ok {
			out[i].Heat = replay[j].Heat
			out[i].Write = replay[j].Write
		}
	}
	return out, true
}

// detectPeriod scans candidate periods over the aggregate heat series
// and returns the best-matching one, or 0 when nothing repeats within
// tolerance. Requiring 2p epochs of history means at least two full
// cycles back the claim.
func detectPeriod(history *History) int {
	n := history.Epochs()
	best, bestScore := 0, math.Inf(1)
	for p := 2; p <= maxPhasePeriod && 2*p <= n; p++ {
		var diff, norm float64
		for k := 0; k+p < n; k++ {
			a, b := history.Total(k), history.Total(k+p)
			diff += math.Abs(a - b)
			norm += math.Abs(a) + math.Abs(b)
		}
		if norm == 0 {
			continue
		}
		if score := diff / norm; score < bestScore {
			best, bestScore = p, score
		}
	}
	if bestScore > phaseTolerance {
		return 0
	}
	return best
}
