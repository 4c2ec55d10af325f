package stats

import (
	"testing"

	"repro/internal/rng"
)

func TestPermutationTestDetectsShift(t *testing.T) {
	r := rng.New(1)
	xs := make([]float64, 30)
	ys := make([]float64, 30)
	for i := range xs {
		xs[i] = r.Normal()
		ys[i] = r.Normal() + 2 // clearly larger
	}
	p := PermutationTest(xs, ys, 2000, rng.New(2))
	if p > 0.01 {
		t.Fatalf("shifted samples p=%v, want tiny", p)
	}
}

func TestPermutationTestNullIsUniformish(t *testing.T) {
	r := rng.New(3)
	xs := make([]float64, 25)
	ys := make([]float64, 25)
	for i := range xs {
		xs[i] = r.Normal()
		ys[i] = r.Normal()
	}
	p := PermutationTest(xs, ys, 2000, rng.New(4))
	if p < 0.02 {
		t.Fatalf("null hypothesis rejected spuriously: p=%v", p)
	}
}

func TestPermutationTestDeterministic(t *testing.T) {
	xs := []float64{1, 2, 3}
	ys := []float64{2, 3, 4}
	a := PermutationTest(xs, ys, 500, rng.New(5))
	b := PermutationTest(xs, ys, 500, rng.New(5))
	if a != b {
		t.Fatalf("permutation test not deterministic: %v vs %v", a, b)
	}
}

func TestPermutationTestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty": func() { PermutationTest(nil, []float64{1}, 10, rng.New(1)) },
		"iters": func() { PermutationTest([]float64{1}, []float64{1}, 0, rng.New(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBootstrapCICoversMean(t *testing.T) {
	r := rng.New(6)
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 10 + r.Normal()
	}
	lo, hi := BootstrapCI(xs, 0.95, 500, rng.New(7))
	m := Mean(xs)
	if lo > m || hi < m {
		t.Fatalf("CI [%v, %v] excludes the sample mean %v", lo, hi, m)
	}
	if lo > 10.5 || hi < 9.5 {
		t.Fatalf("CI [%v, %v] implausible for true mean 10", lo, hi)
	}
	if hi-lo > 1 {
		t.Fatalf("CI [%v, %v] too wide for n=100", lo, hi)
	}
}

func TestBootstrapCINarrowsWithConfidence(t *testing.T) {
	r := rng.New(8)
	xs := make([]float64, 60)
	for i := range xs {
		xs[i] = r.Normal()
	}
	lo50, hi50 := BootstrapCI(xs, 0.5, 800, rng.New(9))
	lo99, hi99 := BootstrapCI(xs, 0.99, 800, rng.New(9))
	if (hi50 - lo50) >= (hi99 - lo99) {
		t.Fatalf("50%% CI [%v,%v] not narrower than 99%% CI [%v,%v]", lo50, hi50, lo99, hi99)
	}
}

func TestBootstrapCIPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":      func() { BootstrapCI(nil, 0.95, 100, rng.New(1)) },
		"confidence": func() { BootstrapCI([]float64{1}, 1.5, 100, rng.New(1)) },
		"iters":      func() { BootstrapCI([]float64{1}, 0.95, 5, rng.New(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
