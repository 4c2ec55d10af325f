// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used throughout the simulator.
//
// Reproducibility is a hard requirement for the experiment harness: every
// trial must be a pure function of its seeds so that parallel sweeps produce
// bit-identical results to serial runs. The standard library's math/rand
// global functions are not splittable in a way that guarantees this, so we
// implement xoshiro256++ seeded via splitmix64, following the reference
// constructions by Blackman and Vigna.
//
// The generator is NOT safe for concurrent use; callers derive independent
// substreams with Split (one per goroutine, node, or trial) instead of
// sharing a generator behind a lock.
package rng

import (
	"math"
	"math/bits"
	"slices"
)

// RNG is a xoshiro256++ generator. The zero value is invalid; use New.
type RNG struct {
	s0, s1, s2, s3 uint64

	// geoP is the last Geometric parameter and geoLog its log1p(-p), so a
	// stream of draws at one p takes the logarithm once. geoInv is
	// 1/geoLog and geoHalf is 1/2 - geoSlack/|geoLog|, the fast path's
	// multiplier and its margin test (see geometric).
	geoP, geoLog, geoInv, geoHalf float64
}

// splitmix64 advances *x and returns the next splitmix64 output. It is used
// to expand seeds into full xoshiro state and to derive substream seeds.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator deterministically seeded from seed.
func New(seed uint64) *RNG {
	var r RNG
	r.Reseed(seed)
	return &r
}

// Reseed resets the generator state as if freshly created with New(seed).
func (r *RNG) Reseed(seed uint64) {
	x := seed
	r.s0 = splitmix64(&x)
	r.s1 = splitmix64(&x)
	r.s2 = splitmix64(&x)
	r.s3 = splitmix64(&x)
	// xoshiro state must not be all zero; splitmix64 of any seed cannot
	// produce four zero words, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s0+r.s3, 23) + r.s0
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split derives an independent substream keyed by id. Streams derived with
// distinct ids from the same parent are statistically independent for our
// purposes (the derivation hashes the parent's next output with the id
// through splitmix64). Split advances the parent generator once.
func (r *RNG) Split(id uint64) *RNG {
	x := r.Uint64() ^ (id * 0x9e3779b97f4a7c15)
	return New(splitmix64(&x))
}

// SubSeed returns a derived seed for stream id without consuming parent
// state. It allows deterministic fan-out: SubSeed(seed, i) is a pure
// function, so workers can be seeded independently of scheduling order.
func SubSeed(seed, id uint64) uint64 {
	x := seed ^ 0xd1b54a32d192ed03
	h := splitmix64(&x)
	x = h ^ (id+1)*0x9e3779b97f4a7c15
	return splitmix64(&x)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Lemire rejection sampling on the high 64 bits of a 128-bit product.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := (-n) % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Geometric returns the number of Bernoulli(p) failures before the first
// success, i.e. a sample from the geometric distribution on {0, 1, 2, ...}
// with mean (1-p)/p. It panics unless 0 < p <= 1, so also for a NaN p.
//
// The draw is the inversion floor(log(u)/log1p(-p)) of one nonzero Float64
// u, clamped to [0, MaxInt32], and every result equals that expression
// bit for bit. A fast path estimates log(u) from a 256-cell table and a
// cubic and multiplies by a cached 1/log1p(-p), with no logarithm and no
// division. It keeps its floor only when the estimate's fractional part
// lies farther than the margin 2^-34/|log1p(-p)| from an integer, which
// proves the floor equal to the formula's; otherwise it evaluates the
// formula. The fallback is rare (about 2^-33/p of draws) until p falls
// below about 1e-10, where every draw takes it. The generator caches
// log1p(-p) and the fast path's constants for the last p it was called
// with, so a stream of draws at one p (a skip sampler, a G(n,p) row)
// takes that logarithm once.
func (r *RNG) Geometric(p float64) int {
	if !(p > 0 && p <= 1) {
		panic("rng: Geometric needs 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	m := r.Uint64() >> 11
	for m == 0 {
		m = r.Uint64() >> 11
	}
	g, _ := r.geometric(m, p)
	return g
}

// geoSlack is A in the fast path's margin M = A/|log1p(-p)|. The fast path
// writes u = 2^e·x with x in [1, 2), takes the midpoint c of x's cell and
// t = x·(1/c) - 1, and estimates ln u as s = e·Ln2 + ln c + t - t²/2 + t³/3.
// s differs from ln u by less than 1.004·2^-38:
//   - the cubic's truncation, |t|^4/4/(1-|t|) with |t| ≤ 1/512, is under
//     2^-38;
//   - t is off by under 2^-52 (1/c and x·(1/c) round once each, x·(1/c)-1
//     is exact), ln c by under 2^-53 (math.Log is within one ulp), and the
//     cubic's own operations round below 2^-60;
//   - e·Ln2 is off by under 53·2^-54 from Ln2's rounding, and it and the
//     two sums each round by at most half an ulp of a value below 64, 2^-48.
//
// The product q̃ = s·(1/log1p(-p)) adds two relative roundings of a value
// below 36.8/|log1p(-p)|, under 2^-46.7/|log1p(-p)|. The formula's quotient
// q is off from ln u/log1p(-p) by math.Log's error, under one ulp (2^-47),
// and by the division's rounding, under 2^-47.8/|log1p(-p)|. In all
// |q̃ - q| < 1.01·2^-38/|log1p(-p)| < M/15, so when frac(q̃) lies in
// (M, 1-M) no integer separates q̃ from q and their floors agree. The test
// is |frac(q̃) - 1/2| < 1/2 - M in floating point; rounding is monotone, so
// it passes only when the exact comparison does. A fused multiply-add
// rounds once where the two operations it replaces round twice, so the
// bound holds whether or not the compiler fuses them; if it fuses q̃'s
// product into the test, the test bounds the unrounded product, which is
// closer still to ln u/log1p(-p).
const geoSlack = 0x1p-34

// geoCell holds, for each of the 256 cells [1+i/256, 1+(i+1)/256) of
// [1, 2), the reciprocal of the cell's midpoint c and ln c. It is filled
// once by init and only read afterwards.
var geoCell [256]struct{ inv, log float64 }

func init() {
	for i := range geoCell {
		c := 1 + (float64(i)+0.5)/256
		geoCell[i].inv, geoCell[i].log = 1/c, math.Log(c)
	}
}

// geometric maps the draw m in [1, 2^53), u = m·2^-53, to Geometric's
// variate at p in (0, 1), and reports whether the fast path decided it.
func (r *RNG) geometric(m uint64, p float64) (g int, fast bool) {
	if p != r.geoP {
		r.geoP, r.geoLog = p, math.Log1p(-p)
		r.geoInv, r.geoHalf = 1/r.geoLog, 0.5+geoSlack/r.geoLog
	}
	// u = 2^e·x with x in [1, 2): m converts to float64 exactly, so its
	// exponent gives e and its top eight fraction bits x's cell.
	b := math.Float64bits(float64(int64(m)))
	e := float64(int64(b>>52) - 1023 - 53)
	x := math.Float64frombits(b&(1<<52-1) | 1023<<52)
	cell := &geoCell[b>>44&0xff]
	t := x*cell.inv - 1
	s := e*math.Ln2 + cell.log + (t + t*t*(t*(1.0/3)-0.5))
	q := s * r.geoInv
	f := math.Floor(q)
	// A p so small that 1/geoLog overflows makes q infinite and the test
	// NaN, which falls back like a margin of 1/2 or more does.
	fast = math.Abs(q-f-0.5) < r.geoHalf
	if !fast {
		f = math.Floor(math.Log(float64(m)*(1.0/(1<<53))) / r.geoLog)
	}
	if f < 0 {
		return 0, fast
	}
	if f > math.MaxInt32 {
		return math.MaxInt32, fast
	}
	return int(f), fast
}

// SkipSampler enumerates the indices of [0, n) that pass independent
// Bernoulli(p) trials, in increasing order, drawing only O(np) expected
// randomness via geometric skipping (the Batagelj–Brandes trick already used
// by the G(n,p) generators). It is the decision-phase primitive behind the
// batch transmit fast path: selecting the ~nq transmitters of a Bernoulli
// round directly instead of flipping n coins.
//
// The zero value is exhausted; obtain one from RNG.SkipSample. The sampler
// borrows the RNG: interleaving other draws between Next calls changes the
// selection (deterministically).
type SkipSampler struct {
	r    *RNG
	p    float64
	n    int
	next int
	all  bool
}

// SkipSample returns a sampler over [0, n) with per-index probability p.
// p <= 0 selects nothing and p >= 1 selects everything; neither consumes
// randomness for the degenerate part (p >= 1 consumes none at all).
func (r *RNG) SkipSample(n int, p float64) SkipSampler {
	s := SkipSampler{r: r, p: p, n: n}
	switch {
	case n <= 0 || p <= 0:
		s.next = n
		if s.next < 0 {
			s.next = 0
		}
	case p >= 1:
		s.all = true
	default:
		s.next = r.Geometric(p)
	}
	return s
}

// Next returns the next selected index, or ok == false when exhausted.
func (s *SkipSampler) Next() (i int, ok bool) {
	if s.next >= s.n {
		return 0, false
	}
	i = s.next
	if s.all {
		s.next++
	} else {
		s.next += 1 + s.r.Geometric(s.p)
	}
	return i, true
}

// Binomial returns a sample from Binomial(n, p). For small n it sums
// Bernoulli draws; for large n it uses geometric skipping (waiting times),
// which runs in O(np) expected time and is exact.
func (r *RNG) Binomial(n int, p float64) int {
	if n < 0 {
		panic("rng: Binomial with negative n")
	}
	if p <= 0 || n == 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	if n <= 32 {
		k := 0
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k
	}
	// Geometric skipping: positions of successes among n trials.
	k := 0
	i := r.Geometric(p)
	for i < n {
		k++
		i += 1 + r.Geometric(p)
	}
	return k
}

// Exponential returns a sample from Exp(rate) with the given rate parameter
// (mean 1/rate). It panics if rate <= 0.
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential needs rate > 0")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Normal returns a standard normal sample via the polar Box–Muller method.
func (r *RNG) Normal() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a uniformly random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes xs in place uniformly at random.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// SampleWithoutReplacement returns k distinct uniform values from [0, n) in
// increasing order, drawn by Floyd's algorithm: k draws, never an O(n)
// allocation. When n ≤ 64·k the draws mark a bitset of ⌈n/64⌉ ≤ k words and
// the result is read off it in order, O(k); sparser samples keep a map and
// sort, O(k log k). Both take the same draws, so the result and the
// generator state afterwards do not depend on the branch. It panics if
// k > n or either is negative.
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	if k < 0 || n < 0 || k > n {
		panic("rng: invalid SampleWithoutReplacement arguments")
	}
	if k == 0 {
		return nil
	}
	out := make([]int, 0, k)
	if n <= 64*k {
		chosen := make([]uint64, (n+63)/64)
		for j := n - k; j < n; j++ {
			t := r.Intn(j + 1)
			if chosen[t>>6]&(1<<(t&63)) != 0 {
				t = j
			}
			chosen[t>>6] |= 1 << (t & 63)
		}
		for w, word := range chosen {
			for ; word != 0; word &= word - 1 {
				out = append(out, w<<6+bits.TrailingZeros64(word))
			}
		}
		return out
	}
	chosen := make(map[int]struct{}, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}
