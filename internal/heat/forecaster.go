package heat

import "fmt"

// ForecasterKind names a forecaster implementation.
type ForecasterKind string

const (
	// Trend is the linear-trend forecaster: next = current + (current −
	// previous), clamped at zero.
	Trend ForecasterKind = "trend"
	// Phase is the phase-period forecaster: it detects a repeating
	// period in the aggregate heat series and predicts the next epoch
	// from the same point of the previous cycle.
	Phase ForecasterKind = "phase"
)

// AllForecasters lists the forecaster kinds.
func AllForecasters() []ForecasterKind { return []ForecasterKind{Trend, Phase} }

// Forecaster predicts the next epoch's per-block heat. history is the
// tracker's recorded past (newest snapshot = history.At(0), the current
// epoch); cur is the prediction so far — the current snapshot for the
// first forecaster in a chain, the previous forecaster's output after
// that, which is exactly memtier's heatforecaster_chain composition.
// Implementations must be pure: no mutation of history or cur, output
// sorted by block ID (preserving cur's order suffices, since cur is).
type Forecaster interface {
	// ForecastInto writes the prediction into dst's storage
	// (reallocated only when too short, so a nil dst gets a fresh slice)
	// and reports whether it wrote one: with nothing to say it returns
	// cur itself and false. dst must not overlap cur or any of history's
	// snapshots.
	ForecastInto(dst []Sample, history *History, cur []Sample) ([]Sample, bool)
}

// NewForecaster builds one forecaster of the given kind.
func NewForecaster(kind ForecasterKind) (Forecaster, error) {
	switch kind {
	case Trend:
		return TrendForecaster{}, nil
	case Phase:
		return PhaseForecaster{}, nil
	}
	return nil, fmt.Errorf("heat: unknown forecaster kind %q", kind)
}

// Chain composes forecasters left to right: each stage receives the
// previous stage's prediction as cur.
type Chain struct {
	stages []Forecaster
	// bufs are ForecastBuffered's ping-pong outputs: each stage writes
	// into the buffer its input is not in, so two serve a chain of any
	// length.
	bufs [2][]Sample
}

// NewChain builds a chain from kinds, in order.
func NewChain(kinds []ForecasterKind) (*Chain, error) {
	c := &Chain{}
	for _, k := range kinds {
		f, err := NewForecaster(k)
		if err != nil {
			return nil, err
		}
		c.stages = append(c.stages, f)
	}
	return c, nil
}

// Forecast folds cur through every stage, each stage's prediction in a
// fresh slice. An empty chain is the identity.
func (c *Chain) Forecast(history *History, cur []Sample) []Sample {
	for _, f := range c.stages {
		cur, _ = f.ForecastInto(nil, history, cur)
	}
	return cur
}

// ForecastBuffered is Forecast folding through the chain's own two
// buffers instead of a fresh slice per stage; the predictions are the
// same. The result is cur itself (every stage had nothing to say) or one
// of those buffers, so it stays valid only until the next
// ForecastBuffered call: the tiering engine shares one chain across its
// executors and reads each prediction within that executor's step.
func (c *Chain) ForecastBuffered(history *History, cur []Sample) []Sample {
	next := 0 // cur is never in bufs[next]
	for _, f := range c.stages {
		out, wrote := f.ForecastInto(c.bufs[next], history, cur)
		if wrote {
			c.bufs[next] = out
			next ^= 1
		}
		cur = out
	}
	return cur
}

// resized returns dst with length n, reallocated only when too short.
func resized(dst []Sample, n int) []Sample {
	if cap(dst) < n {
		return make([]Sample, n)
	}
	return dst[:n]
}
