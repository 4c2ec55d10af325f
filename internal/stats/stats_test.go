package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("bad summary: %+v", s)
	}
	if !almostEq(s.Variance, 2.5, 1e-12) {
		t.Fatalf("variance %v, want 2.5", s.Variance)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Variance != 0 || s.StdDev != 0 || s.Median != 7 {
		t.Fatalf("bad single summary: %+v", s)
	}
}

func TestSummarizePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty")
		}
	}()
	Summarize(nil)
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-12) {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Fatal("Quantile mutated input")
	}
}

func TestQuantilePropertyMonotone(t *testing.T) {
	r := rng.New(1)
	f := func(n uint8) bool {
		m := int(n%20) + 2
		xs := make([]float64, m)
		for i := range xs {
			xs[i] = r.Float64()
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanCI(t *testing.T) {
	mean, hw := MeanCI([]float64{1, 1, 1, 1}, 1.96)
	if mean != 1 || hw != 0 {
		t.Fatalf("constant sample CI: mean=%v hw=%v", mean, hw)
	}
	_, hw1 := MeanCI([]float64{5}, 1.96)
	if !math.IsInf(hw1, 1) {
		t.Fatalf("n=1 half-width should be +Inf, got %v", hw1)
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	f := FitLinear(xs, ys)
	if !almostEq(f.Slope, 2, 1e-12) || !almostEq(f.Intercept, 1, 1e-12) || !almostEq(f.R2, 1, 1e-12) {
		t.Fatalf("bad fit: %+v", f)
	}
}

func TestFitLinearNoise(t *testing.T) {
	r := rng.New(2)
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 3*xs[i] - 10 + r.Normal()*0.5
	}
	f := FitLinear(xs, ys)
	if !almostEq(f.Slope, 3, 0.01) {
		t.Fatalf("slope %v, want ~3", f.Slope)
	}
	if f.R2 < 0.99 {
		t.Fatalf("R2 %v too low", f.R2)
	}
}

func TestFitLinearPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"mismatch": func() { FitLinear([]float64{1}, []float64{1, 2}) },
		"short":    func() { FitLinear([]float64{1}, []float64{1}) },
		"constX":   func() { FitLinear([]float64{2, 2}, []float64{1, 3}) },
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
