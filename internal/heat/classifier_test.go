package heat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustClassifier(t *testing.T, bounds []float64) *Classifier {
	t.Helper()
	c, err := NewClassifier(bounds)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClassifierValidation(t *testing.T) {
	bad := [][]float64{
		{},
		{0},
		{-1, 2},
		{1, 1},
		{2, 1},
		{1, math.NaN()},
		{1, math.Inf(1)},
	}
	for _, b := range bad {
		if _, err := NewClassifier(b); err == nil {
			t.Fatalf("bounds %v accepted", b)
		}
	}
	if _, err := NewClassifier(DefaultBoundaries()); err != nil {
		t.Fatal(err)
	}
}

func TestClassifierEdges(t *testing.T) {
	c := mustClassifier(t, []float64{0.5, 2, 8})
	cases := []struct {
		h    float64
		want int
	}{
		{0, 0}, {0.49, 0},
		{0.5, 1}, {1.9, 1}, // boundary value belongs to the upper class
		{2, 2}, {7.999, 2},
		{8, 3}, {1e300, 3},
	}
	for _, tc := range cases {
		if got := Class(c.bounds, tc.h); got != tc.want {
			t.Errorf("Class(%v) = %d, want %d", tc.h, got, tc.want)
		}
	}
}

// randomBounds draws 1..6 strictly increasing positive finite boundaries.
func randomBounds(r *rand.Rand) []float64 {
	n := 1 + r.Intn(6)
	bounds := make([]float64, n)
	prev := 0.0
	for i := range bounds {
		prev += 1e-3 + r.Float64()*10
		bounds[i] = prev
	}
	return bounds
}

// The satellite property test: for arbitrary valid boundaries the class
// mapping is total (every finite non-negative heat lands in exactly one
// in-range class) and monotone (hotter heat never classifies lower).
func TestClassifierMonotoneTotal(t *testing.T) {
	prop := func(seed int64, h1, h2 float64) bool {
		r := rand.New(rand.NewSource(seed))
		bounds := randomBounds(r)
		c, err := NewClassifier(bounds)
		if err != nil {
			return false
		}
		h1, h2 = math.Abs(h1), math.Abs(h2)
		if math.IsNaN(h1) || math.IsInf(h1, 0) || math.IsNaN(h2) || math.IsInf(h2, 0) {
			return true
		}
		c1, c2 := Class(bounds, h1), Class(bounds, h2)
		// Total: a class index strictly inside [0, Classes()).
		if c1 < 0 || c1 >= c.Classes() || c2 < 0 || c2 >= c.Classes() {
			return false
		}
		// Monotone: ordering of heats never inverts class ordering.
		if h1 <= h2 && c1 > c2 {
			return false
		}
		// Consistent with the boundary semantics: class i means
		// bounds[i-1] <= h < bounds[i].
		if c1 > 0 && h1 < bounds[c1-1] {
			return false
		}
		if c1 < len(bounds) && h1 >= bounds[c1] {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHeatmapAccounting(t *testing.T) {
	c := mustClassifier(t, []float64{0.5, 2, 8})
	m := c.NewHeatmap()
	m.Add(0.1, 100) // class 0
	m.Add(1, 200)   // class 1
	m.Add(1.5, 50)  // class 1
	m.Add(9, 1000)  // class 3
	if got, want := m.String(), "1/100B | 2/250B | 0/0B | 1/1000B"; got != want {
		t.Fatalf("heatmap = %q, want %q", got, want)
	}
	blocks, bytes := m.Totals()
	if blocks != 4 || bytes != 1350 {
		t.Fatalf("totals = %d/%d, want 4/1350", blocks, bytes)
	}
}
