package heat

// TrendForecaster extrapolates each block's heat linearly from its last
// delta: predicted = cur + (cur − previous), clamped at zero. Blocks
// with no previous-epoch record (first seen this epoch) keep their
// current heat — one data point fits no line. Heating blocks are
// predicted hotter, cooling blocks colder, which makes promotion react
// one epoch earlier than the raw EWMA would.
type TrendForecaster struct{}

// ForecastInto implements Forecaster.
func (TrendForecaster) ForecastInto(dst []Sample, history *History, cur []Sample) ([]Sample, bool) {
	prev := history.At(1)
	if prev == nil {
		return cur, false
	}
	out := resized(dst, len(cur))
	j, ok := 0, false
	for i, s := range cur {
		out[i] = s
		if j, ok = Seek(prev, j, s.ID); ok {
			out[i].Heat = clampZero(2*s.Heat - prev[j].Heat)
			out[i].Write = clampZero(2*s.Write - prev[j].Write)
		}
	}
	return out, true
}

func clampZero(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
