package bench_test

import (
	"strings"
	"testing"

	"repro/bench"
)

// BenchmarkWallclock exposes every harness case under `go test -bench`,
// e.g.:
//
//	go test -bench 'Wallclock/micro' -benchtime 3x ./bench
func BenchmarkWallclock(b *testing.B) {
	for _, c := range bench.Cases() {
		c := c
		b.Run(c.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Iter()
			}
		})
	}
}

// TestMicroBenchesRun keeps the micro pipelines correct under plain
// `go test`: each case must complete one iteration without panicking
// (the cases verify their own outputs).
func TestMicroBenchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("bench cases skipped in -short")
	}
	for _, c := range bench.Cases() {
		if strings.HasPrefix(c.Name, "micro/") {
			c.Iter()
		}
	}
}

func TestMeasureShape(t *testing.T) {
	if testing.Short() {
		t.Skip("bench cases skipped in -short")
	}
	r := bench.Measure(bench.Case{Name: "noop", Iter: func() {
		s := make([]byte, 1024)
		_ = s
	}}, 4)
	if r.Name != "noop" || r.NsPerOp < 0 || r.AllocsPerOp < 0 {
		t.Fatalf("implausible result: %+v", r)
	}
}
