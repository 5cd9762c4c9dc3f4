// Package rng is the one way the simulator builds a seeded random stream.
// Its Source yields math/rand's NewSource stream value for value, so every
// dataset, sample and ledger it feeds is unchanged, but seeding costs O(1)
// instead of math/rand's 1,841 Park–Miller steps and 607 stores.
//
// math/rand's Seed sets state word i to
//
//	x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ rngCooked[i]
//
// where x[k] = seed·48271^k mod 2³¹−1 (seed normalised into [0, 2³¹−1),
// 0 standing for 89482311). With the powers tabled, any word is three
// modular products, and a Source computes a word only when a draw that
// first reads it comes due (a few draws ahead): draw n reads feed word
// 334−n and tap word 607−n, so draws 1–273 compute both, draws 274–334
// only the feed word (their tap word was an earlier draw's feed), and from
// draw 335 on every word has been computed or overwritten. The read
// position is the whole bookkeeping.
package rng

import "math/rand"

const (
	rngLen   = 607             // state words
	rngTap   = 273             // draws that read a tap word nobody computed yet
	rngFeed  = rngLen - rngTap // feed index after Seed; draws that read an uncomputed feed word
	int32max = 1<<31 - 1       // the Park–Miller modulus
	zeroSeed = 89482311        // what math/rand seeds with when seed ≡ 0
	warmup   = 20              // Park–Miller steps Seed discards before word 0
	mask63   = 1<<63 - 1       // Int63's mask
	parkA    = 48271           // the Park–Miller multiplier
	block    = 4               // draws one refill computes ahead
)

// seeding is what seeded state word i needs from the tables: its three
// multipliers 48271^(warmup+1+3i+j) mod 2³¹−1 and math/rand's rngCooked[i].
type seeding struct {
	pow    [3]uint64
	cooked int64
}

var seedings = tables()

// mulmod returns a·b mod 2³¹−1 for a, b < 2³¹ by two Mersenne folds.
func mulmod(a, b uint64) uint64 {
	p := a * b
	p = p&int32max + p>>31
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

// tables builds the power table, then recovers rngCooked from math/rand's
// own generator rather than copying it: seed 1's first rngLen draws fix
// its seeded state V, and V[i] xor seed 1's mixed word i is the table.
func tables() (w [rngLen]seeding) {
	x := uint64(1)
	for k := 0; k < warmup; k++ {
		x = mulmod(x, parkA)
	}
	for i := range w {
		for j := range w[i].pow {
			x = mulmod(x, parkA)
			w[i].pow[j] = x
		}
	}

	// Draw n (1-based) adds tap word 607−n into feed word (334−n) mod 607
	// and returns the sum. For n > rngTap the tap word is the feed word
	// draw n−rngTap wrote, so the feed word read was V's; for n ≤ rngTap
	// the tap word is V's, recovered by the first loop.
	src := rand.NewSource(1).(rand.Source64)
	var o [rngLen + 1]int64
	for n := 1; n <= rngLen; n++ {
		o[n] = int64(src.Uint64())
	}
	var v [rngLen]int64
	for n := rngTap + 1; n <= rngLen; n++ {
		v[(rngFeed-n+rngLen)%rngLen] = o[n] - o[n-rngTap]
	}
	for n := 1; n <= rngTap; n++ {
		v[rngFeed-n] = o[n] - v[rngLen-n]
	}
	for i := range w {
		p := &w[i].pow
		w[i].cooked = v[i] ^ int64(p[0]<<40^p[1]<<20^p[2])
	}
	return w
}

// Source is a rand.Source64 whose stream equals rand.NewSource(seed)'s
// for the seed last passed to Seed; the zero Source is seed 0's. Its
// 4.9 KB state is allocated on the first draw, so a Source that is never
// drawn from costs only its own few words. Not safe for concurrent use.
type Source struct {
	vec   *[rngLen]int64
	x     uint64 // the normalised seed, in [1, 2³¹−1); 0 before the first Seed
	i, lo int    // vec[lo:i] holds computed draws not yet returned, the next at i−1
}

// New returns a *rand.Rand over a Source seeded with seed: the stream of
// rand.New(rand.NewSource(seed)). A stream built to be drawn from gets its
// state in the same allocation, as math/rand's does.
func New(seed int64) *rand.Rand {
	s := new(struct {
		Source
		state [rngLen]int64
	})
	s.vec = &s.state
	s.Seed(seed)
	return rand.New(&s.Source)
}

// Seed restarts the stream at seed's first value. It computes nothing;
// the draws that follow compute the words they read.
func (s *Source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.x = uint64(seed)
	s.i, s.lo = rngFeed, rngFeed
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() & mask63) }

// Uint64 returns a pseudo-random 64-bit value: the next draw refill
// computed, refilling when none is left.
func (s *Source) Uint64() uint64 {
	if s.i == s.lo {
		s.refill()
	}
	s.i--
	return uint64(s.vec[s.i])
}

// refill runs math/rand's lagged Fibonacci step for the next draws and
// leaves them in place in vec, read downward by Uint64. A draw adds tap
// word (feed+273) mod 607 into feed word feed and returns the sum; feed
// counts down from 334 after Seed and wraps at 0. Once the first pass
// since Seed is done, every word holds a draw, and a refill runs a whole
// pass. The first pass goes block by block, each step computing the
// seeded words it is the first to read: its feed word, and while the tap
// word is at or above rngFeed (draws 1–273) the tap word too; below, the
// tap word is an earlier draw's feed word.
func (s *Source) refill() {
	if s.x == 0 {
		s.Seed(0)
	}
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	v := s.vec
	if s.lo == 0 {
		// Feed words 606..334 read taps 272..0, which this pass has not
		// reached; 333..61 read 606..334 and 60..0 read 333..273, both
		// written just before. Each add is order-free within itself.
		add(v[rngFeed:], v[:rngTap])
		add(v[rngFeed-rngTap:rngFeed], v[rngFeed:])
		add(v[:rngFeed-rngTap], v[rngTap:rngFeed])
		s.i = rngLen
		return
	}
	hi, x := s.lo, s.x
	lo := max(hi-block, 0)
	for j := hi - 1; j >= lo; j-- {
		v[j] = word(x, j)
		if t := j + rngTap; t >= rngFeed {
			v[t] = word(x, t)
		}
		v[j] += v[j+rngTap]
	}
	s.i, s.lo = hi, lo
}

// add adds src into dst element by element, four to a step, which halves
// a pass (about 600 → 340 ns on a 2-vCPU Xeon): a long stream then draws
// as fast as math/rand's.
func add(dst, src []int64) {
	dst = dst[:len(src)]
	k := 0
	for ; k+4 <= len(src); k += 4 {
		d, s := dst[k:k+4:k+4], src[k:k+4:k+4]
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
	}
	for ; k < len(src); k++ {
		dst[k] += src[k]
	}
}

// word is state word i seeded with x: three Park–Miller successors of x,
// shifted and mixed as math/rand's Seed mixes them, xor the cooked table.
func word(x uint64, i int) int64 {
	w := &seedings[i]
	return int64(mulmod(x, w.pow[0])<<40^mulmod(x, w.pow[1])<<20^mulmod(x, w.pow[2])) ^ w.cooked
}
