// Package stats provides the statistical tools of the paper's analysis:
// Pearson correlation (Figures 5 and 6), distribution summaries backing
// the violin plots of Figure 3, speedup matrices for Figure 4 and ordinary
// least squares for the tier performance predictor of §IV-F.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples. Constant inputs yield NaN, which callers should treat as
// "undefined correlation".
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: pearson over %d vs %d samples", len(x), len(y)))
	}
	n := float64(len(x))
	if n == 0 {
		return math.NaN()
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(vx*vy)
}

// Mean returns the arithmetic mean (NaN for empty input).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// StdDev returns the population standard deviation.
func StdDev(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	m := Mean(v)
	s := 0.0
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(v)))
}

// GeoMean returns the geometric mean of positive samples.
func GeoMean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range v {
		if x <= 0 {
			panic(fmt.Sprintf("stats: geomean of non-positive value %v", x))
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

// Quantile returns the q-quantile (0<=q<=1) of a sample using linear
// interpolation; the input need not be sorted.
func Quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Violin summarizes a distribution the way the paper's Figure 3 violin
// plots do: extremes, quartiles, mean and spread.
type Violin struct {
	N                int
	Min, Q1, Med, Q3 float64
	Max, Mean, Std   float64
}

// NewViolin computes the summary of a sample.
func NewViolin(v []float64) Violin {
	return Violin{
		N:    len(v),
		Min:  Quantile(v, 0),
		Q1:   Quantile(v, 0.25),
		Med:  Quantile(v, 0.5),
		Q3:   Quantile(v, 0.75),
		Max:  Quantile(v, 1),
		Mean: Mean(v),
		Std:  StdDev(v),
	}
}

// String renders "n=21 min=.. q1=.. med=.. q3=.. max=.. mean=..".
func (v Violin) String() string {
	return fmt.Sprintf("n=%d min=%.3g q1=%.3g med=%.3g q3=%.3g max=%.3g mean=%.3g std=%.3g",
		v.N, v.Min, v.Q1, v.Med, v.Q3, v.Max, v.Mean, v.Std)
}

// LinearFit is an ordinary least squares fit y = Intercept + Σ Coef·x.
type LinearFit struct {
	Intercept float64
	Coef      []float64
	R2        float64
}

// FitOLS fits a multivariate linear model via the normal equations with a
// tiny ridge for stability. xs[i] is the i-th observation's feature vector.
func FitOLS(xs [][]float64, y []float64) LinearFit {
	if len(xs) != len(y) || len(xs) == 0 {
		panic(fmt.Sprintf("stats: OLS over %d xs vs %d y", len(xs), len(y)))
	}
	d := len(xs[0]) + 1 // intercept column
	a := make([]float64, d*d)
	b := make([]float64, d)
	row := make([]float64, d)
	for i, x := range xs {
		if len(x) != d-1 {
			panic("stats: ragged feature matrix")
		}
		row[0] = 1
		copy(row[1:], x)
		for p := 0; p < d; p++ {
			for q := 0; q < d; q++ {
				a[p*d+q] += row[p] * row[q]
			}
			b[p] += row[p] * y[i]
		}
	}
	for p := 0; p < d; p++ {
		a[p*d+p] += 1e-9
	}
	coef := solveGauss(a, b, d)
	fit := LinearFit{Intercept: coef[0], Coef: coef[1:]}

	// R² against the mean model.
	my := Mean(y)
	var ssRes, ssTot float64
	for i, x := range xs {
		pred := fit.Predict(x)
		ssRes += (y[i] - pred) * (y[i] - pred)
		ssTot += (y[i] - my) * (y[i] - my)
	}
	if ssTot > 0 {
		fit.R2 = 1 - ssRes/ssTot
	} else {
		fit.R2 = 1
	}
	return fit
}

// Predict evaluates the fitted model on a feature vector.
func (f LinearFit) Predict(x []float64) float64 {
	if len(x) != len(f.Coef) {
		panic(fmt.Sprintf("stats: predict with %d features, model has %d", len(x), len(f.Coef)))
	}
	y := f.Intercept
	for i, c := range f.Coef {
		y += c * x[i]
	}
	return y
}

// solveGauss solves a d x d system with partial pivoting.
func solveGauss(a []float64, b []float64, d int) []float64 {
	m := make([]float64, len(a))
	copy(m, a)
	x := make([]float64, d)
	copy(x, b)
	for col := 0; col < d; col++ {
		// Pivot.
		best := col
		for r := col + 1; r < d; r++ {
			if math.Abs(m[r*d+col]) > math.Abs(m[best*d+col]) {
				best = r
			}
		}
		if best != col {
			for c := 0; c < d; c++ {
				m[col*d+c], m[best*d+c] = m[best*d+c], m[col*d+c]
			}
			x[col], x[best] = x[best], x[col]
		}
		piv := m[col*d+col]
		if piv == 0 {
			panic("stats: singular OLS system")
		}
		for r := col + 1; r < d; r++ {
			f := m[r*d+col] / piv
			if f == 0 {
				continue
			}
			for c := col; c < d; c++ {
				m[r*d+c] -= f * m[col*d+c]
			}
			x[r] -= f * x[col]
		}
	}
	for r := d - 1; r >= 0; r-- {
		s := x[r]
		for c := r + 1; c < d; c++ {
			s -= m[r*d+c] * x[c]
		}
		x[r] = s / m[r*d+r]
	}
	return x
}
