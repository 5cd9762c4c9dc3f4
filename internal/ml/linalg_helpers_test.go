package ml

import "fmt"

// CholeskySolve solves A x = b into fresh buffers: choleskySolve as the
// tests call it.
func CholeskySolve(a []float64, b []float64) ([]float64, int) {
	n := len(b)
	if len(a) != n*n {
		panic(fmt.Sprintf("ml: cholesky with %d-buffer for n=%d", len(a), n))
	}
	x := make([]float64, n)
	return x, choleskySolve(a, b, make([]float64, n*n), make([]float64, n), x)
}

// NormalEquations solves one entity's normal equations over its rated
// factor vectors: one Solver pass with scratch of its own, the way the
// tests call it. rank is inferred from the factors.
func NormalEquations(factors [][]float64, ratings []float64, lambda float64) ([]float64, int) {
	if len(factors) == 0 {
		return nil, 0
	}
	if len(factors) != len(ratings) {
		panic(fmt.Sprintf("ml: %d factors vs %d ratings", len(factors), len(ratings)))
	}
	var s Solver
	s.Reset(len(factors[0]))
	flops := 0
	for i, q := range factors {
		flops += s.Add(q, ratings[i])
	}
	x := make([]float64, len(factors[0]))
	return x, flops + s.Solve(lambda, x)
}
