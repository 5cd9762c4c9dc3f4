package rng

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// edgeSeeds are the seeds math/rand's normalisation treats specially:
// 0 and its multiples of 2³¹−1 (mapped to 89482311), 89482311 itself,
// negatives (wrapped) and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, int32max, -int32max, 2 * int32max, int32max - 1, int32max + 1,
	zeroSeed, -zeroSeed, math.MinInt64, math.MaxInt64,
}

// script is one oracle case: draws from seed, a reseed, then draws again,
// each op picked by the op stream.
type script struct {
	Seed, Reseed  int64
	Before, After int // ops before and after the reseed
	Ops           int64
}

// Generate draws seeds half from edgeSeeds, and op counts in [0, 1000]
// so the first-pass thresholds (draws 273, 334) and the first wrap (607)
// are crossed, reached exactly, or not reached.
func (script) Generate(r *rand.Rand, _ int) reflect.Value {
	seed := func() int64 {
		if r.Intn(2) == 0 {
			return edgeSeeds[r.Intn(len(edgeSeeds))]
		}
		return r.Int63() - r.Int63()
	}
	count := func() int {
		if r.Intn(4) == 0 {
			return []int{0, 1, 272, 273, 274, 333, 334, 335, 606, 607, 608}[r.Intn(11)]
		}
		return r.Intn(1001)
	}
	return reflect.ValueOf(script{seed(), seed(), count(), count(), r.Int63()})
}

// draw applies op k of the script to r and returns what it saw.
func draw(r *rand.Rand, op int) any {
	switch op {
	case 0, 1, 2:
		return r.Uint64() // Source64.Uint64
	case 3, 4, 5:
		return r.Int63() // Source.Int63
	case 6:
		return r.Intn(30)
	case 7:
		return r.Int31n(64) // power of two: one masked draw
	case 8:
		return r.Int31n(1_000_003)
	case 9:
		return r.Float64()
	case 10:
		return r.Perm(5)
	case 11:
		s := []int{0, 1, 2, 3, 4, 5, 6}
		r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s
	default:
		return r.NormFloat64()
	}
}

// run plays the script against a fresh *rand.Rand over src.
func (c script) run(src rand.Source) []any {
	r := rand.New(src)
	ops := rand.New(rand.NewSource(c.Ops))
	out := make([]any, 0, c.Before+c.After)
	for k := 0; k < c.Before; k++ {
		out = append(out, draw(r, ops.Intn(13)))
	}
	r.Seed(c.Reseed)
	for k := 0; k < c.After; k++ {
		out = append(out, draw(r, ops.Intn(13)))
	}
	return out
}

// TestSourceMatchesMathRand is the exactness oracle: every draw method of
// *rand.Rand sees the same values over a Source as over rand.NewSource,
// across the first-pass thresholds, the first wrap and a mid-stream Seed.
func TestSourceMatchesMathRand(t *testing.T) {
	prop := func(c script) bool {
		var s Source
		s.Seed(c.Seed)
		return reflect.DeepEqual(c.run(&s), c.run(rand.NewSource(c.Seed)))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestSourceLongStreamAndZeroValue pins draws far past the first pass for
// every edge seed, through a Source and through New, and the zero Source
// as seed 0's stream.
func TestSourceLongStreamAndZeroValue(t *testing.T) {
	for _, seed := range edgeSeeds {
		want := rand.NewSource(seed).(rand.Source64)
		var got Source
		got.Seed(seed)
		viaNew := New(seed)
		for n := 1; n <= 5000; n++ {
			w := want.Uint64()
			if a, b := got.Uint64(), viaNew.Uint64(); a != w || b != w {
				t.Fatalf("seed %d draw %d: Source %#x, New %#x, math/rand %#x", seed, n, a, b, w)
			}
		}
	}
	var zero Source
	want := rand.NewSource(0)
	for n := 1; n <= 700; n++ {
		if a, b := zero.Int63(), want.Int63(); a != b {
			t.Fatalf("zero Source draw %d: %d, seed 0's %d", n, a, b)
		}
	}
}

// TestSourceAllocatesOnFirstDraw: seeding allocates nothing, the first
// draw allocates the state once, and reseeding reuses it; New allocates
// no more often than math/rand.
func TestSourceAllocatesOnFirstDraw(t *testing.T) {
	var sink *rand.Rand
	std := testing.AllocsPerRun(100, func() { sink = rand.New(rand.NewSource(3)); sink.Int63() })
	if n := testing.AllocsPerRun(100, func() { sink = New(3); sink.Int63() }); n > std {
		t.Fatalf("New and a draw allocate %.0f times, math/rand %.0f", n, std)
	}
	var s Source
	if n := testing.AllocsPerRun(100, func() { s.Seed(7) }); n != 0 {
		t.Fatalf("Seed allocates %.0f times", n)
	}
	if s.vec != nil {
		t.Fatal("Seed built the state")
	}
	s.Uint64()
	if n := testing.AllocsPerRun(100, func() { s.Seed(9); s.Uint64() }); n != 0 {
		t.Fatalf("reseed and draw allocate %.0f times", n)
	}
}

// BenchmarkReseed is genLDADocs' pattern: reseed, then one document's 50
// topic draws.
func BenchmarkReseed(b *testing.B) {
	var s Source
	for _, c := range []struct {
		name string
		r    *rand.Rand
	}{{"mathrand", rand.New(rand.NewSource(1))}, {"rng", rand.New(&s)}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.r.Seed(int64(i))
				for k := 0; k < 50; k++ {
					c.r.Intn(30)
				}
			}
		})
	}
}

// BenchmarkStream is the text generators' pattern: one long stream of
// Intn(36) from a single seed.
func BenchmarkStream(b *testing.B) {
	for _, c := range []struct {
		name string
		r    *rand.Rand
	}{{"mathrand", rand.New(rand.NewSource(1))}, {"rng", New(1)}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.r.Intn(36)
			}
		})
	}
}
