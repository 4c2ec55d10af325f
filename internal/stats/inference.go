package stats

import "repro/internal/rng"

// PermutationTest estimates the one-sided p-value for the hypothesis
// mean(xs) < mean(ys) by randomly re-assigning the pooled samples `iters`
// times: the returned p is the fraction of permutations whose mean
// difference (ys - xs) is at least as large as the observed one. Small p
// means "ys really is larger than xs", e.g. a baseline really does use more
// transmissions than the paper's algorithm.
func PermutationTest(xs, ys []float64, iters int, r *rng.RNG) float64 {
	if len(xs) == 0 || len(ys) == 0 {
		panic("stats: PermutationTest needs non-empty samples")
	}
	if iters < 1 {
		panic("stats: PermutationTest needs iters >= 1")
	}
	observed := Mean(ys) - Mean(xs)
	pool := make([]float64, 0, len(xs)+len(ys))
	pool = append(pool, xs...)
	pool = append(pool, ys...)
	nx := len(xs)
	atLeast := 0
	for i := 0; i < iters; i++ {
		r.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		sumX := 0.0
		for _, v := range pool[:nx] {
			sumX += v
		}
		sumY := 0.0
		for _, v := range pool[nx:] {
			sumY += v
		}
		diff := sumY/float64(len(pool)-nx) - sumX/float64(nx)
		if diff >= observed {
			atLeast++
		}
	}
	// Add-one smoothing keeps the p-value away from an impossible 0.
	return (float64(atLeast) + 1) / (float64(iters) + 1)
}

// BootstrapCI returns a percentile bootstrap confidence interval for the
// mean of xs at the given confidence level (e.g. 0.95), using `iters`
// resamples. It is distribution-free, unlike the normal-approximation
// MeanCI, and better behaved for the skewed round-count distributions the
// simulator produces.
func BootstrapCI(xs []float64, confidence float64, iters int, r *rng.RNG) (lo, hi float64) {
	if len(xs) == 0 {
		panic("stats: BootstrapCI of empty sample")
	}
	if confidence <= 0 || confidence >= 1 {
		panic("stats: confidence must be in (0,1)")
	}
	if iters < 10 {
		panic("stats: BootstrapCI needs iters >= 10")
	}
	means := make([]float64, iters)
	for i := range means {
		sum := 0.0
		for j := 0; j < len(xs); j++ {
			sum += xs[r.Intn(len(xs))]
		}
		means[i] = sum / float64(len(xs))
	}
	alpha := (1 - confidence) / 2
	return Quantile(means, alpha), Quantile(means, 1-alpha)
}
