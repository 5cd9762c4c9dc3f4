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
	Name() string
	Forecast(history *History, cur []Sample) []Sample
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

// Name renders "trend+phase".
func (c *Chain) Name() string {
	s := ""
	for i, f := range c.stages {
		if i > 0 {
			s += "+"
		}
		s += f.Name()
	}
	return s
}

// Forecast implements Forecaster by folding cur through every stage. An
// empty chain is the identity.
func (c *Chain) Forecast(history *History, cur []Sample) []Sample {
	for _, f := range c.stages {
		cur = f.Forecast(history, cur)
	}
	return cur
}

var _ Forecaster = (*Chain)(nil)
