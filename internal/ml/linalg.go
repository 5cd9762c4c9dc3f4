// Package ml provides the numeric kernels behind the machine-learning
// workloads: small dense linear algebra for ALS, multinomial likelihoods
// for Naive Bayes, Gini impurity statistics for random forests and
// collapsed-Gibbs topic sampling for LDA. Every kernel returns the number
// of floating-point operations it performed so callers can charge CPU time
// through the task context.
package ml

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b and the flop count.
func Dot(a, b []float64) (float64, int) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("ml: dot length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s, 2 * len(a)
}

// AxPy computes y += alpha*x in place and returns the flop count.
func AxPy(alpha float64, x, y []float64) int {
	if len(x) != len(y) {
		panic(fmt.Sprintf("ml: axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
	return 2 * len(x)
}

// AddOuter accumulates A += x xᵀ into a dense row-major n x n matrix and
// returns the flop count.
func AddOuter(a []float64, x []float64) int {
	n := len(x)
	if len(a) != n*n {
		panic(fmt.Sprintf("ml: outer accumulate into %d-buffer for n=%d", len(a), n))
	}
	for i := 0; i < n; i++ {
		xi := x[i]
		row := a[i*n:]
		for j := 0; j < n; j++ {
			row[j] += xi * x[j]
		}
	}
	return 2 * n * n
}

// choleskySolve solves A x = b for symmetric positive-definite A (row-major
// n x n), overwriting neither input; l (n x n) and y (n) are scratch and x
// receives the solution. It returns the flop count. A ridge is expected to
// have been added by the caller (ALS adds lambda*I), keeping the
// factorization stable.
func choleskySolve(a, b, l, y, x []float64) int {
	n := len(b)
	flops := 0
	// Factor A = L Lᵀ.
	copy(l, a)
	for j := 0; j < n; j++ {
		d := l[j*n+j]
		for k := 0; k < j; k++ {
			d -= l[j*n+k] * l[j*n+k]
			flops += 2
		}
		if d <= 0 {
			panic("ml: cholesky of non-positive-definite matrix")
		}
		d = math.Sqrt(d)
		l[j*n+j] = d
		flops++
		for i := j + 1; i < n; i++ {
			s := l[i*n+j]
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
				flops += 2
			}
			l[i*n+j] = s / d
			flops++
		}
	}
	// Forward substitution L y = b.
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l[i*n+k] * y[k]
			flops += 2
		}
		y[i] = s / l[i*n+i]
		flops++
	}
	// Back substitution Lᵀ x = y.
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * x[k]
			flops += 2
		}
		x[i] = s / l[i*n+i]
		flops++
	}
	return flops
}

// Solver solves the ALS per-entity normal equations
// A = Σ qᵀq + lambda·I, b = Σ r·q over an entity's rated factor vectors:
// Reset starts an entity, Add accumulates each rated factor vector, Solve
// writes the entity's factor vector. It is one task's scratch for a run of
// solves: its buffers are reused from entity to entity, so a task
// allocates them once, not once per entity.
type Solver struct {
	a, b, l, y []float64
}

// Reset clears the accumulated system for a rank-n entity.
func (s *Solver) Reset(n int) {
	if cap(s.b) < n {
		s.a, s.l = make([]float64, n*n), make([]float64, n*n)
		s.b, s.y = make([]float64, n), make([]float64, n)
	}
	s.a, s.l, s.b, s.y = s.a[:n*n], s.l[:n*n], s.b[:n], s.y[:n]
	clear(s.a)
	clear(s.b)
}

// Add accumulates one rated factor vector q with rating r and returns the
// flop count.
func (s *Solver) Add(q []float64, r float64) int {
	return AddOuter(s.a, q) + AxPy(r, q, s.b)
}

// Solve adds the lambda ridge, solves the accumulated system into x and
// returns the flop count.
func (s *Solver) Solve(lambda float64, x []float64) int {
	n := len(s.b)
	if len(x) != n {
		panic(fmt.Sprintf("ml: solve into %d-vector for n=%d", len(x), n))
	}
	for i := 0; i < n; i++ {
		s.a[i*n+i] += lambda
	}
	return n + choleskySolve(s.a, s.b, s.l, s.y, x)
}

// RMSE computes the root-mean-square error of predictions dot(u,p) against
// observed ratings, given parallel slices of user/product factors.
func RMSE(userF, prodF [][]float64, ratings []float64) (float64, int) {
	if len(userF) != len(prodF) || len(userF) != len(ratings) {
		panic("ml: rmse slice length mismatch")
	}
	if len(ratings) == 0 {
		return 0, 0
	}
	flops := 0
	se := 0.0
	for i := range ratings {
		p, f := Dot(userF[i], prodF[i])
		flops += f + 3
		d := p - ratings[i]
		se += d * d
	}
	return math.Sqrt(se / float64(len(ratings))), flops + 2
}
