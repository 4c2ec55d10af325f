// Package stats provides the summary statistics and tests the experiment
// harness and the command-line tools report: moments and quantiles
// (Summarize, Quantile, Mean), a normal-approximation confidence interval
// (MeanCI) and a one-sided permutation test (PermutationTest). FitLinear
// and BootstrapCI are kept for the planned tests that check the paper's
// asymptotic claims (rounds growing like log n, transmissions like
// log² n / λ, ...) against fitted slopes and resampled intervals.
package stats

import (
	"math"
	"sort"
)

// Summary holds standard moments and order statistics of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // unbiased (n-1 denominator)
	StdDev   float64
	Min      float64
	Max      float64
	Median   float64
}

// Summarize computes a Summary of xs. It panics on an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: Summarize of empty sample")
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Variance = ss / float64(s.N-1)
		s.StdDev = math.Sqrt(s.Variance)
	}
	s.Median = Quantile(xs, 0.5)
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It does not mutate xs.
// It panics on an empty sample or q outside [0,1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MeanCI returns the sample mean together with a normal-approximation
// confidence half-width at the given z value (e.g. 1.96 for 95%).
// For n == 1 the half-width is reported as +Inf.
func MeanCI(xs []float64, z float64) (mean, halfWidth float64) {
	s := Summarize(xs)
	if s.N < 2 {
		return s.Mean, math.Inf(1)
	}
	return s.Mean, z * s.StdDev / math.Sqrt(float64(s.N))
}

// Mean returns the arithmetic mean. It panics on an empty sample.
func Mean(xs []float64) float64 { return Summarize(xs).Mean }

// LinearFit holds the result of a simple least-squares regression
// y ≈ Slope·x + Intercept.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLinear computes the least-squares line through (xs[i], ys[i]).
// It panics if the slices differ in length or have fewer than 2 points,
// or if all xs are identical (the slope is undefined).
func FitLinear(xs, ys []float64) LinearFit {
	if len(xs) != len(ys) {
		panic("stats: FitLinear length mismatch")
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		panic("stats: FitLinear needs at least 2 points")
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		panic("stats: FitLinear with constant x")
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy == 0 {
		fit.R2 = 1
	} else {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit
}
