// Package lib is simlint test input for the unreached analyzer: the
// library half of a two-package module whose command is ../../cmd/app.
// Line positions are pinned by unreached.golden.
package lib

// Dead is exported and nothing calls it.
func Dead() int { return 1 }

// Shape is called through by Total. Nothing calls Perimeter, so the
// interface method and both implementations are reported.
type Shape interface {
	Area() float64
	Perimeter() float64
}

// Square is a Shape and a fmt.Stringer.
type Square struct{ Side float64 }

// Area is live only through Shape.Area, which Total calls.
func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter is dead with Shape.Perimeter.
func (s Square) Perimeter() float64 { return 4 * s.Side }

// String is live only through fmt.Stringer.
func (s Square) String() string { return "square" }

// Circle is the second Shape.
type Circle struct{ R float64 }

// Area is live only through Shape.Area.
func (c Circle) Area() float64 { return 3 * c.R * c.R }

// Perimeter is dead with Shape.Perimeter.
func (c Circle) Perimeter() float64 { return 6 * c.R }

// scale shares the name Area with live methods but is no Shape (wrong
// signature): a name-level oracle would keep it.
type scale struct{ f float64 }

// Area is dead: nothing calls it and scale implements no interface.
func (s *scale) Area(of float64) float64 { return s.f * of }

// reset is unexported and dead.
func (s *scale) reset() { s.f = 0 }

// Total sums the areas; the command calls it.
func Total(shapes []Shape) float64 {
	sc := &scale{f: 1}
	t := sc.f - 1
	for _, s := range shapes {
		t += s.Area()
	}
	return t
}

// Map is generic and only ever used instantiated.
func Map[T, U any](xs []T, f func(T) U) []U {
	out := make([]U, 0, len(xs))
	for _, x := range xs {
		out = append(out, f(x))
	}
	return out
}

// loop only calls itself, which keeps nothing alive.
func loop(n int) int {
	if n == 0 {
		return 0
	}
	return loop(n - 1)
}

// Limit is a dead constant; limit below is live through Clamp.
const Limit = 8

const limit = 4

// Clamp is live; the directive above it suppresses nothing and is stale.
//
//simlint:allow unreached fixture: Clamp is called by the command
func Clamp(n int) int {
	if n > limit {
		return limit
	}
	return n
}

// Reference is kept for tests to compare against.
//
//simlint:allow unreached fixture: the reference implementation tests compare against
func Reference() int { return 2 }
