package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPearsonPerfectCorrelations(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if r := Pearson(x, y); !almostEq(r, 1, 1e-12) {
		t.Fatalf("positive linear r = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(x, neg); !almostEq(r, -1, 1e-12) {
		t.Fatalf("negative linear r = %v, want -1", r)
	}
}

func TestPearsonUncorrelated(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{1, -1, 1, -1} // orthogonal-ish to the trend
	r := Pearson(x, y)
	if math.Abs(r) > 0.7 {
		t.Fatalf("r = %v for weakly related data", r)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if !math.IsNaN(Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})) {
		t.Error("constant x must yield NaN")
	}
	if !math.IsNaN(Pearson(nil, nil)) {
		t.Error("empty input must yield NaN")
	}
}

func TestPearsonMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	Pearson([]float64{1}, []float64{1, 2})
}

// Property: Pearson is symmetric, bounded and invariant to positive affine
// transforms.
func TestPearsonPropertiesQuick(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
			y[i] = r.NormFloat64() + 0.5*x[i]
		}
		c := Pearson(x, y)
		if math.IsNaN(c) {
			return true
		}
		if c < -1-1e-9 || c > 1+1e-9 {
			return false
		}
		if !almostEq(c, Pearson(y, x), 1e-9) {
			return false
		}
		// Affine transform x' = 3x + 7.
		x2 := make([]float64, n)
		for i := range x {
			x2[i] = 3*x[i] + 7
		}
		return almostEq(c, Pearson(x2, y), 1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMeanStdGeo(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(v); !almostEq(m, 5, 1e-12) {
		t.Fatalf("mean = %v", m)
	}
	if s := StdDev(v); !almostEq(s, 2, 1e-12) {
		t.Fatalf("std = %v, want 2", s)
	}
	if g := GeoMean([]float64{1, 4, 16}); !almostEq(g, 4, 1e-9) {
		t.Fatalf("geomean = %v, want 4", g)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(StdDev(nil)) || !math.IsNaN(GeoMean(nil)) {
		t.Error("empty inputs must be NaN")
	}
}

func TestGeoMeanNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("geomean of zero did not panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestQuantile(t *testing.T) {
	v := []float64{3, 1, 2, 4} // unsorted on purpose
	if q := Quantile(v, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(v, 1); q != 4 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(v, 0.5); !almostEq(q, 2.5, 1e-12) {
		t.Fatalf("median = %v, want 2.5", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile must be NaN")
	}
}

func TestQuantileRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("q=2 did not panic")
		}
	}()
	Quantile([]float64{1}, 2)
}

func TestViolin(t *testing.T) {
	v := NewViolin([]float64{1, 2, 3, 4, 5})
	if v.N != 5 || v.Min != 1 || v.Max != 5 || v.Med != 3 {
		t.Fatalf("violin = %+v", v)
	}
	if v.Q1 != 2 || v.Q3 != 4 {
		t.Fatalf("quartiles = %v/%v", v.Q1, v.Q3)
	}
	if v.String() == "" {
		t.Error("empty violin string")
	}
}

func TestFitOLSExactLine(t *testing.T) {
	xs := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{5, 7, 9, 11} // y = 3 + 2x
	fit := FitOLS(xs, y)
	if !almostEq(fit.Intercept, 3, 1e-6) || !almostEq(fit.Coef[0], 2, 1e-6) {
		t.Fatalf("fit = %+v, want 3 + 2x", fit)
	}
	if fit.R2 < 0.999 {
		t.Fatalf("R2 = %v for exact line", fit.R2)
	}
	if p := fit.Predict([]float64{10}); !almostEq(p, 23, 1e-6) {
		t.Fatalf("predict(10) = %v, want 23", p)
	}
}

func TestFitOLSMultivariate(t *testing.T) {
	// y = 1 + 2a - 3b, with a mild disturbance on one point.
	xs := [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 1}, {1, 2}}
	y := make([]float64, len(xs))
	for i, x := range xs {
		y[i] = 1 + 2*x[0] - 3*x[1]
	}
	y[5] += 0.001
	fit := FitOLS(xs, y)
	if !almostEq(fit.Coef[0], 2, 0.01) || !almostEq(fit.Coef[1], -3, 0.01) {
		t.Fatalf("coefs = %v", fit.Coef)
	}
	if fit.R2 < 0.999 {
		t.Fatalf("R2 = %v", fit.R2)
	}
}

func TestFitOLSPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("empty", func() { FitOLS(nil, nil) })
	mustPanic("ragged", func() { FitOLS([][]float64{{1}, {1, 2}}, []float64{1, 2}) })
	fit := FitOLS([][]float64{{1}, {2}}, []float64{1, 2})
	mustPanic("predict dims", func() { fit.Predict([]float64{1, 2}) })
}

// Property: violin quantiles are ordered and bracket the sample.
func TestViolinOrderingProperty(t *testing.T) {
	prop := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		v := make([]float64, len(raw))
		for i, x := range raw {
			v[i] = float64(x)
		}
		s := NewViolin(v)
		ordered := s.Min <= s.Q1 && s.Q1 <= s.Med && s.Med <= s.Q3 && s.Q3 <= s.Max
		bracketed := s.Mean >= s.Min && s.Mean <= s.Max
		return ordered && bracketed && s.N == len(raw)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
