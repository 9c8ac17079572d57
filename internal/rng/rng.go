// Package rng centralizes the repository's seed-stream discipline: the
// splitmix64 finalizer used to derive independent deterministic streams
// from one master seed, and a value-type PCG stream suitable for
// per-rank randomness in the simulated cluster.
//
// The discipline (established by the sharded bootstrap, PR 3) is that a
// stream's identity is a pure function of (master seed, stream index) —
// never of execution order, batch size, or worker count. Any component
// that partitions work across goroutines or machines derives one stream
// per logical unit through Mix64 and the results are bit-identical
// however the units are scheduled.
package rng

import (
	"math"
	"math/bits"
)

// Mix64 is the splitmix64 finalizer (Steele, Lea & Flood), a strong
// bijective bit mixer: golden-ratio increment followed by two
// multiply-xorshift rounds. It turns structured inputs (seed ^ index)
// into independent-looking stream seeds.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Stream is a PCG-DXSM 128/64 generator held by value, so a simulated
// machine can keep one stream per rank in a flat slice with no per-rank
// heap objects. The algorithm and constants match math/rand/v2's PCG;
// only the container differs. The zero value is a valid (if poorly
// seeded) stream; use NewStream or Seed.
type Stream struct {
	hi, lo uint64
	// Cached second output of the polar normal transform.
	spare    float64
	hasSpare bool
}

// NewStream returns a stream seeded from the pair, conventionally
// produced by Mix64 of (master seed, stream index).
func NewStream(seed1, seed2 uint64) Stream {
	var s Stream
	s.Seed(seed1, seed2)
	return s
}

// Seed resets the stream to the given 128-bit state, discarding any
// cached normal draw.
func (s *Stream) Seed(seed1, seed2 uint64) {
	s.hi, s.lo = seed1, seed2
	s.hasSpare = false
	s.spare = 0
}

// Uint64 returns the next output of the PCG-DXSM 128/64 generator.
func (s *Stream) Uint64() uint64 {
	const (
		mulHi = 2549297995355413924
		mulLo = 4865540595714422341
		incHi = 6364136223846793005
		incLo = 1442695040888963407
	)
	// state = state * mul + inc, 128-bit.
	hi, lo := bits.Mul64(s.lo, mulLo)
	hi += s.hi*mulLo + s.lo*mulHi
	lo, c := bits.Add64(lo, incLo, 0)
	hi, _ = bits.Add64(hi, incHi, c)
	s.lo, s.hi = lo, hi
	// DXSM output function (the variant math/rand/v2 uses).
	const cheapMul = 0xda942042e4dd58b5
	hi ^= hi >> 32
	hi *= cheapMul
	hi ^= hi >> 48
	hi *= lo | 1
	return hi
}

// Float64 returns a uniform draw in [0, 1) with 53 random bits.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal draw via Marsaglia's polar
// method, caching the second value of each generated pair. The sequence
// is deterministic per stream but deliberately NOT the same as
// math/rand/v2's ziggurat — streams are independent noise sources, not
// drop-in replays of the shared generator. Its bits are the same on
// every GOARCH: the squares are rounded before they are added, the log
// is Log, and math.Sqrt and division are correctly rounded everywhere.
func (s *Stream) NormFloat64() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := float64(u*u) + float64(v*v)
		if q == 0 || q >= 1 {
			continue
		}
		f := math.Sqrt(-2 * Log(q) / q)
		s.spare = v * f
		s.hasSpare = true
		return u * f
	}
}
