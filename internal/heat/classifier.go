package heat

import (
	"fmt"
	"math"
	"sort"
)

// DefaultBoundaries are the calibrated heat-class boundaries: four
// classes — cold [0, 0.5), warm [0.5, 2), hot [2, 8), blazing [8, ∞) —
// chosen so that, under the default 0.5 decay, a block needs roughly one
// touch per epoch to stay warm and several to stay hot.
func DefaultBoundaries() []float64 { return []float64{0.5, 2, 8} }

// Classifier buckets scalar heat into classes separated by configurable
// boundaries. With N boundaries there are N+1 classes: class i collects
// heat in [bounds[i-1], bounds[i]), class 0 everything below bounds[0],
// class N everything at or above bounds[N-1]. The mapping is total (every
// finite non-negative heat lands in exactly one class) and monotone
// (hotter never classifies lower) — properties the quick.Check suite
// pins.
type Classifier struct {
	bounds []float64
}

// NewClassifier validates the boundaries: at least one, strictly
// increasing, positive and finite.
func NewClassifier(bounds []float64) (*Classifier, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("heat: classifier needs at least one boundary")
	}
	prev := 0.0
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("heat: boundary %d is not finite", i)
		}
		if b <= prev {
			return nil, fmt.Errorf("heat: boundaries must be positive and strictly increasing: bounds[%d]=%v after %v", i, b, prev)
		}
		prev = b
	}
	out := make([]float64, len(bounds))
	copy(out, bounds)
	return &Classifier{bounds: out}, nil
}

// Classes returns the number of classes (boundaries + 1).
func (c *Classifier) Classes() int { return len(c.bounds) + 1 }

// Bounds returns a copy of the class boundaries.
func (c *Classifier) Bounds() []float64 {
	out := make([]float64, len(c.bounds))
	copy(out, c.bounds)
	return out
}

// Class buckets a heat value against sorted boundaries: the index of the
// first boundary exceeding the heat, or len(bounds) when none does. A
// binary search keeps classification O(log n) for long boundary lists.
func Class(bounds []float64, h float64) int {
	return sort.SearchFloat64s(bounds, math.Nextafter(h, math.Inf(1)))
}

// Heatmap is the bucketed histogram of one population of blocks: how
// many blocks, and how many bytes, sit in each heat class. The zero
// value is unusable — build one with Classifier.NewHeatmap so the class
// count matches the boundaries.
type Heatmap struct {
	Bounds []float64 `json:"bounds"`
	Blocks []int64   `json:"blocks"`
	Bytes  []int64   `json:"bytes"`
}

// NewHeatmap returns an empty heatmap shaped by the classifier's
// boundaries.
func (c *Classifier) NewHeatmap() Heatmap {
	return Heatmap{
		Bounds: c.Bounds(),
		Blocks: make([]int64, c.Classes()),
		Bytes:  make([]int64, c.Classes()),
	}
}

// Add classifies one block's heat into the map.
func (m *Heatmap) Add(h float64, bytes int64) {
	cls := Class(m.Bounds, h)
	m.Blocks[cls]++
	m.Bytes[cls] += bytes
}

// Totals sums the map: total blocks and bytes across every class.
func (m *Heatmap) Totals() (blocks, bytes int64) {
	for i := range m.Blocks {
		blocks += m.Blocks[i]
		bytes += m.Bytes[i]
	}
	return blocks, bytes
}

// String renders "3/120KiB | 1/4KiB | 0/0 | 2/64KiB" — blocks/bytes per
// class, coldest first.
func (m Heatmap) String() string {
	s := ""
	for i := range m.Blocks {
		if i > 0 {
			s += " | "
		}
		s += fmt.Sprintf("%d/%dB", m.Blocks[i], m.Bytes[i])
	}
	return s
}
