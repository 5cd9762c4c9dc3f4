package main

import "sort"

// quantile returns the q-th quantile (0 < q <= 1) of the samples by the
// nearest-rank method; it sorts a copy, so callers keep their order.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// median is the midpoint median: the mean of the two middle samples when
// the count is even, so a two-sample median is not just the smaller one.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quietQuartile is the sample a quarter of the way in from the good end:
// the smallest of four, the second smallest of five to eight, and so on
// (from the largest when higher is better). A disturbance on the shared
// host only ever makes a round slower, so this is the run's estimate of
// the undisturbed value; one lucky sample does not set it as it would a
// minimum.
func quietQuartile(samples []float64, better string) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if better == "higher" {
		return sorted[n-1-(n-1)/4]
	}
	return sorted[(n-1)/4]
}

func sum(samples []float64) float64 {
	total := 0.0
	for _, v := range samples {
		total += v
	}
	return total
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method): the
// spread the acceptance procedure in README.md is stated in.
func quartileSpread(samples []float64) float64 {
	n := len(samples)
	if n < 2 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		lo := int(pos)
		if lo < 1 {
			return sorted[0]
		}
		if lo >= n {
			return sorted[n-1]
		}
		frac := pos - float64(lo)
		return sorted[lo-1] + frac*(sorted[lo]-sorted[lo-1])
	}
	med := median(sorted)
	if med == 0 {
		return 0
	}
	return (at(0.75) - at(0.25)) / med
}
