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
	// stream of draws at one p takes the logarithm once.
	geoP, geoLog float64
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

// Bool returns a fair coin flip.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

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
// with mean (1-p)/p. It panics unless 0 < p <= 1, so also for a NaN p. For
// small p it uses the inversion formula floor(log(U)/log(1-p)) which is O(1).
// The generator caches log1p(-p) for the last p it was called with, so a
// stream of draws at one p (a skip sampler, a G(n,p) row) takes that
// logarithm once; every draw is the same float as without the cache.
func (r *RNG) Geometric(p float64) int {
	if !(p > 0 && p <= 1) {
		panic("rng: Geometric needs 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	if p != r.geoP {
		r.geoP, r.geoLog = p, math.Log1p(-p)
	}
	g := math.Floor(math.Log(u) / r.geoLog)
	if g < 0 {
		return 0
	}
	if g > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(g)
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
// increasing order, drawn by Floyd's algorithm and then sorted: O(k log k),
// with no O(n) allocation. It panics if k > n or either is negative.
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	if k < 0 || n < 0 || k > n {
		panic("rng: invalid SampleWithoutReplacement arguments")
	}
	if k == 0 {
		return nil
	}
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
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
