package rng

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestReseedMatchesNew(t *testing.T) {
	a := New(7)
	a.Uint64()
	a.Reseed(7)
	b := New(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Reseed state differs from New at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := New(6)
	const m, trials = 10, 100000
	counts := make([]int, m)
	for i := 0; i < trials; i++ {
		counts[r.Intn(m)]++
	}
	want := float64(trials) / m
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d too far from %v", k, c, want)
		}
	}
}

func TestUint64nEdge(t *testing.T) {
	r := New(7)
	if got := r.Uint64n(1); got != 0 {
		t.Fatalf("Uint64n(1) = %d, want 0", got)
	}
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(3); v > 2 {
			t.Fatalf("Uint64n(3) = %d", v)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(8)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	r := New(9)
	const p, n = 0.3, 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) empirical rate %v", p, got)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(10)
	for _, p := range []float64{0.5, 0.1, 0.01} {
		const n = 50000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(r.Geometric(p))
		}
		mean := sum / n
		want := (1 - p) / p
		sd := math.Sqrt((1-p)/(p*p)) / math.Sqrt(n)
		if math.Abs(mean-want) > 6*sd+0.01 {
			t.Fatalf("Geometric(%v) mean %v, want %v", p, mean, want)
		}
	}
}

func TestGeometricOne(t *testing.T) {
	r := New(11)
	for i := 0; i < 100; i++ {
		if g := r.Geometric(1); g != 0 {
			t.Fatalf("Geometric(1) = %d, want 0", g)
		}
	}
}

func TestGeometricPanics(t *testing.T) {
	for _, p := range []float64{0, -0.5, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Geometric(%v) did not panic", p)
				}
			}()
			New(1).Geometric(p)
		}()
	}
}

// FuzzGeometricMatchesFormula draws from one generator while the parameter
// changes between calls, and checks every draw against the inversion
// formula floor(log(u)/log1p(-p)) recomputed from a twin generator. Mode
// picks the parameter sequence: p on every call, p and q alternating, or a
// fresh parameter in [min(p,q), max(p,q)] on every call, as GNPHetero's
// per-node probabilities are. p and q map into (0, 1] through |x| and
// 1/|x|; inputs that map to 0 or NaN are skipped.
func FuzzGeometricMatchesFormula(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, p, q float64, mode uint8) {
		unit := func(x float64) float64 {
			x = math.Abs(x)
			if x > 1 {
				x = 1 / x
			}
			return x
		}
		p, q = unit(p), unit(q)
		if !(p > 0 && q > 0) {
			t.Skip()
		}
		r, twin, params := New(seed), New(seed), New(^seed)
		lo, hi := min(p, q), max(p, q)
		for i := 0; i < 200; i++ {
			x := p
			switch mode % 3 {
			case 1:
				if i%2 == 1 {
					x = q
				}
			case 2:
				x = lo + (hi-lo)*params.Float64()
			}
			got := r.Geometric(x)
			want := 0
			if x < 1 {
				u := twin.Float64()
				for u == 0 {
					u = twin.Float64()
				}
				g := math.Floor(math.Log(u) / math.Log1p(-x))
				want = int(min(max(g, 0), math.MaxInt32))
			}
			if got != want {
				t.Fatalf("draw %d at p=%v: got %d, formula %d", i, x, got, want)
			}
		}
	})
}

// formula is Geometric's variate for the 53-bit draw m at p by the
// inversion formula itself, with the helper's clamps.
func formula(m uint64, p float64) int {
	g := math.Floor(math.Log(float64(m)*(1.0/(1<<53))) / math.Log1p(-p))
	return int(min(max(g, 0), math.MaxInt32))
}

// geometricSteps lists the draws at which the formula at p steps from j+1
// to j, for a spread of j: for each target draw it takes j = formula(target)
// and bisects for the first m with formula(m) <= j. The targets sit on the
// edges of the fast path's table cells, where its cubic is least accurate:
// one per binary exponent 0..52, cycling through the cells, and every cell
// at exponent 40, where the margin covers only about ±64 draws of each
// ±1000 window.
func geometricSteps(p float64) []uint64 {
	var targets []uint64
	for k := 0; k <= 52; k++ {
		targets = append(targets, uint64(math.Ldexp(1+float64(37*k%256)/256, k)))
	}
	for i := 0; i < 256; i++ {
		targets = append(targets, uint64(math.Ldexp(1+float64(i)/256, 40)))
	}
	var steps []uint64
	seen := map[int]bool{}
	for _, m := range targets {
		j := formula(m, p)
		if seen[j] {
			continue
		}
		seen[j] = true
		lo, hi := uint64(1), m // formula(hi) <= j
		for lo < hi {
			mid := lo + (hi-lo)/2
			if formula(mid, p) <= j {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		steps = append(steps, lo)
	}
	return steps
}

// TestGeometricFastPathAtSteps checks the fast path where it can break: at
// every draw within 1000 of the formula's steps, and at both ends of the
// draw grid, for powers of two, their complements, the simulator's own
// parameters and the extremes of p. The sweep must reach the fallback and
// must take the fast path on at least 85% of its draws.
func TestGeometricFastPathAtSteps(t *testing.T) {
	n := float64(1 << 18)
	ps := []float64{0.3, 0.7, 1e-9, math.SmallestNonzeroFloat64,
		8 * math.Log(n) / n, 1 / (8 * math.Log(n))} // G(n,p) at n = 2^18 and Algorithm 1's 1/d
	for k := 1; k <= 20; k++ {
		ps = append(ps, math.Ldexp(1, -k))
	}
	for k := 1; k <= 10; k++ {
		ps = append(ps, 1-math.Ldexp(1, -k))
	}
	var r RNG
	points, fast := 0, 0
	check := func(m uint64, p float64) {
		got, f := r.geometric(m, p)
		if want := formula(m, p); got != want {
			t.Fatalf("p=%v m=%d: helper %d (fast %v), formula %d", p, m, got, f, want)
		}
		points++
		if f {
			fast++
		}
	}
	for _, p := range ps {
		check(1, p)
		check(1<<53-1, p)
		for _, step := range geometricSteps(p) {
			lo, hi := max(step, 1001)-1000, min(step+1000, 1<<53-1)
			for m := lo; m <= hi; m++ {
				check(m, p)
			}
		}
	}
	if fast == points || fast < points*85/100 {
		t.Fatalf("fast path decided %d of %d draws; want at least 85%%, and at least one fallback", fast, points)
	}
	t.Logf("fast path decided %d of %d draws", fast, points)
}

// FuzzGeometricFastPath compares the helper with the inversion formula at
// one draw m, masked to the 53-bit grid (0 is skipped: Geometric redraws
// it), and one parameter p, mapped into (0, 1) as FuzzGeometricMatchesFormula
// maps it (1 is skipped: Geometric returns 0 without a draw).
func FuzzGeometricFastPath(f *testing.F) {
	f.Fuzz(func(t *testing.T, m uint64, p float64) {
		m &= 1<<53 - 1
		p = math.Abs(p)
		if p > 1 {
			p = 1 / p
		}
		if m == 0 || !(p > 0 && p < 1) {
			t.Skip()
		}
		got, fast := new(RNG).geometric(m, p)
		if want := formula(m, p); got != want {
			t.Fatalf("p=%v m=%d: helper %d (fast %v), formula %d", p, m, got, fast, want)
		}
	})
}

func TestBinomialMoments(t *testing.T) {
	r := New(12)
	cases := []struct {
		n int
		p float64
	}{{10, 0.5}, {100, 0.1}, {1000, 0.01}, {5000, 0.7}}
	for _, c := range cases {
		const trials = 20000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < trials; i++ {
			v := float64(r.Binomial(c.n, c.p))
			sum += v
			sumSq += v * v
		}
		mean := sum / trials
		wantMean := float64(c.n) * c.p
		varr := sumSq/trials - mean*mean
		wantVar := float64(c.n) * c.p * (1 - c.p)
		if math.Abs(mean-wantMean) > 6*math.Sqrt(wantVar/trials)+0.05 {
			t.Fatalf("Binomial(%d,%v) mean %v want %v", c.n, c.p, mean, wantMean)
		}
		if math.Abs(varr-wantVar)/wantVar > 0.15 {
			t.Fatalf("Binomial(%d,%v) var %v want %v", c.n, c.p, varr, wantVar)
		}
	}
}

func TestBinomialEdges(t *testing.T) {
	r := New(13)
	if got := r.Binomial(0, 0.5); got != 0 {
		t.Fatalf("Binomial(0,.5) = %d", got)
	}
	if got := r.Binomial(100, 0); got != 0 {
		t.Fatalf("Binomial(100,0) = %d", got)
	}
	if got := r.Binomial(100, 1); got != 100 {
		t.Fatalf("Binomial(100,1) = %d", got)
	}
	f := func(n uint8, pRaw uint16) bool {
		p := float64(pRaw) / math.MaxUint16
		k := r.Binomial(int(n), p)
		return k >= 0 && k <= int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(14)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	varr := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("Normal mean %v", mean)
	}
	if math.Abs(varr-1) > 0.03 {
		t.Fatalf("Normal variance %v", varr)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(16)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid element %d", n, v)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(17)
	const n, trials = 5, 50000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := float64(trials) / n
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("Perm first element %d count %d, want ~%v", k, c, want)
		}
	}
}

func TestShuffle(t *testing.T) {
	r := New(18)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, len(xs))
	for _, v := range xs {
		if seen[v] {
			t.Fatalf("Shuffle duplicated %d", v)
		}
		seen[v] = true
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(19)
	for _, tc := range []struct{ n, k int }{{10, 0}, {10, 1}, {10, 5}, {10, 10}, {1000, 3}} {
		s := r.SampleWithoutReplacement(tc.n, tc.k)
		if len(s) != tc.k {
			t.Fatalf("sample(%d,%d) length %d", tc.n, tc.k, len(s))
		}
		for i, v := range s {
			if v < 0 || v >= tc.n {
				t.Fatalf("sample(%d,%d) out of range: %d", tc.n, tc.k, v)
			}
			if i > 0 && s[i-1] >= v {
				t.Fatalf("sample(%d,%d) not strictly increasing: %v", tc.n, tc.k, s)
			}
		}
	}
}

// floydMapSort is the map-and-sort Floyd sample that
// SampleWithoutReplacement replaces with a bitset when n ≤ 64·k: the
// reference for FuzzSampleWithoutReplacement.
func floydMapSort(r *RNG, n, k int) []int {
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

// FuzzSampleWithoutReplacement holds both branches of the sampler to the
// map-and-sort reference: the same values in the same order, and the same
// generator state afterwards.
func FuzzSampleWithoutReplacement(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, n, k int) {
		n = int(uint(n) % (1 << 16))
		k = int(uint(k) % uint(n+1))
		r, twin := New(seed), New(seed)
		got, want := r.SampleWithoutReplacement(n, k), floydMapSort(twin, n, k)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d k=%d: sample %v, reference %v", n, k, got, want)
		}
		if *r != *twin {
			t.Fatalf("n=%d k=%d: generator state differs from the reference's", n, k)
		}
	})
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k>n did not panic")
		}
	}()
	New(1).SampleWithoutReplacement(3, 4)
}

func TestSplitIndependence(t *testing.T) {
	parent := New(20)
	a := parent.Split(1)
	b := parent.Split(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams collide: %d/1000", same)
	}
}

func TestSubSeedDeterministic(t *testing.T) {
	if SubSeed(1, 2) != SubSeed(1, 2) {
		t.Fatal("SubSeed not deterministic")
	}
	if SubSeed(1, 2) == SubSeed(1, 3) {
		t.Fatal("SubSeed id collision")
	}
	if SubSeed(1, 2) == SubSeed(2, 2) {
		t.Fatal("SubSeed seed collision")
	}
}

func TestChiSquareUint64Bits(t *testing.T) {
	// Crude bit-balance check: each of the 64 bits should be ~50/50.
	r := New(21)
	const n = 100000
	var ones [64]int
	for i := 0; i < n; i++ {
		v := r.Uint64()
		for b := 0; b < 64; b++ {
			if v&(1<<uint(b)) != 0 {
				ones[b]++
			}
		}
	}
	for b, c := range ones {
		if math.Abs(float64(c)-n/2) > 6*math.Sqrt(n/4) {
			t.Fatalf("bit %d set %d/%d times", b, c, n)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkGeometricSmallP(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Geometric(1e-4)
	}
	_ = sink
}

func BenchmarkBinomialLarge(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Binomial(1<<16, 1e-3)
	}
	_ = sink
}
