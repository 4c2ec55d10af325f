package graph

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
)

// builderGNP is the original Builder-based G(n,p) construction, kept here as
// the reference for the sort-free CSR fast path.
func builderGNP(n int, p float64, r *rng.RNG) *Digraph {
	b := NewBuilder(n)
	if p == 0 || n == 1 {
		return b.Build()
	}
	total := uint64(n) * uint64(n-1)
	if p == 1 {
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v {
					b.AddEdge(NodeID(u), NodeID(v))
				}
			}
		}
		return b.Build()
	}
	idx := uint64(r.Geometric(p))
	for idx < total {
		u := NodeID(idx / uint64(n-1))
		v := NodeID(idx % uint64(n-1))
		if v >= u {
			v++
		}
		b.AddEdge(u, v)
		idx += 1 + uint64(r.Geometric(p))
	}
	return b.Build()
}

// builderGNPHetero is GNPHetero's original construction through the
// Builder and its edge sort, kept as the reference for the direct CSR rows.
func builderGNPHetero(n int, pmin, pmax float64, r *rng.RNG) (*Digraph, []float64) {
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = pmin + (pmax-pmin)*r.Float64()
	}
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		p := ps[u]
		if p <= 0 {
			continue
		}
		idx := r.Geometric(p)
		for idx < n-1 {
			v := NodeID(idx)
			if v >= NodeID(u) {
				v++
			}
			b.AddEdge(NodeID(u), v)
			idx += 1 + r.Geometric(p)
		}
	}
	return b.Build(), ps
}

// builderGNPSymmetric is GNPSymmetric's original construction, which maps
// every pair index to its row by walking the rows from 0, kept as the
// reference for the carried row.
func builderGNPSymmetric(n int, p float64, r *rng.RNG) *Digraph {
	b := NewBuilder(n)
	if p == 0 || n == 1 {
		return b.Build()
	}
	total := uint64(n) * uint64(n-1) / 2
	next := func() uint64 {
		if p == 1 {
			return 0
		}
		return uint64(r.Geometric(p))
	}
	idx := next()
	for idx < total {
		u, rem := uint64(0), idx
		for rem >= uint64(n-1)-u {
			rem -= uint64(n-1) - u
			u++
		}
		b.AddBoth(NodeID(u), NodeID(u+1+rem))
		if p == 1 {
			idx++
		} else {
			idx += 1 + uint64(r.Geometric(p))
		}
	}
	return b.Build()
}

func digraphsEqual(a, b *Digraph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := 0; v < a.N(); v++ {
		ao, bo := a.Out(NodeID(v)), b.Out(NodeID(v))
		if len(ao) != len(bo) {
			return false
		}
		for i := range ao {
			if ao[i] != bo[i] {
				return false
			}
		}
		ai, bi := a.In(NodeID(v)), b.In(NodeID(v))
		if len(ai) != len(bi) {
			return false
		}
		for i := range ai {
			if ai[i] != bi[i] {
				return false
			}
		}
	}
	return true
}

// TestScratchGNPMatchesBuilderConstruction pins the three G(n,p) generators
// to the constructions they replaced: Scratch.GNPDirected to builderGNP's
// per-edge divide, Scratch.GNPHetero (pmin = 0, pmax = p) to the Builder and its
// sort, and GNPSymmetric to the row walk from 0. Out-rows, in-rows, the
// per-node probabilities and the randomness consumed must all agree.
func TestScratchGNPMatchesBuilderConstruction(t *testing.T) {
	type gnpCase struct {
		n    int
		p    float64
		seed uint64
	}
	cases := []gnpCase{
		{1, 0.5, 1}, {2, 0.5, 2}, {17, 0, 3}, {17, 1, 4},
		{64, 0.05, 5}, {64, 0.3, 6}, {200, 0.02, 7}, {513, 0.011, 8},
	}
	for _, n := range []int{1, 2, 3, 50, 1000} {
		for _, p := range []float64{1e-3, 0.05, 0.5, 1} {
			for seed := uint64(1); seed <= 3; seed++ {
				cases = append(cases, gnpCase{n, p, seed})
			}
		}
	}
	// One scratch serves every case, so this one reuses storage the dense
	// n = 1000 graphs above grew: edges, offsets and probabilities.
	cases = append(cases, gnpCase{100, 0.3, 9})
	sc := NewScratch()
	for _, tc := range cases {
		name := fmt.Sprintf("n=%d p=%v seed=%d", tc.n, tc.p, tc.seed)
		check := func(gen string, got, want *Digraph, rGot, rWant *rng.RNG) {
			t.Helper()
			if err := got.Validate(); err != nil {
				t.Fatalf("%s %s: graph invalid: %v", gen, name, err)
			}
			if !digraphsEqual(got, want) {
				t.Fatalf("%s %s: graph differs from the reference", gen, name)
			}
			// RNG-consumption parity: both generators must leave the stream
			// in the same state, or downstream per-trial draws would diverge.
			if rGot.Uint64() != rWant.Uint64() {
				t.Fatalf("%s %s: randomness consumed differs from the reference", gen, name)
			}
		}

		rGot, rWant := rng.New(tc.seed), rng.New(tc.seed)
		check("Scratch.GNPDirected", sc.GNPDirected(tc.n, tc.p, rGot), builderGNP(tc.n, tc.p, rWant), rGot, rWant)

		rGot, rWant = rng.New(tc.seed), rng.New(tc.seed)
		got, ps := sc.GNPHetero(tc.n, 0, tc.p, rGot)
		want, wantPs := builderGNPHetero(tc.n, 0, tc.p, rWant)
		if !slices.Equal(ps, wantPs) {
			t.Fatalf("Scratch.GNPHetero %s: per-node probabilities differ", name)
		}
		check("Scratch.GNPHetero", got, want, rGot, rWant)

		// The reference's row walk is O(n·m): keep it to the sparse graphs.
		if tc.n < 1000 || tc.p <= 0.05 {
			rGot, rWant = rng.New(tc.seed), rng.New(tc.seed)
			check("GNPSymmetric", GNPSymmetric(tc.n, tc.p, rGot), builderGNPSymmetric(tc.n, tc.p, rWant), rGot, rWant)
		}
	}
}

func TestScratchReuseAcrossSizes(t *testing.T) {
	sc := NewScratch()
	r := rng.New(42)
	// Shrinking and regrowing must not leak state between generations.
	for _, n := range []int{128, 16, 300, 1, 64} {
		g := sc.GNPDirected(n, 0.1, r)
		if g.N() != n {
			t.Fatalf("got n=%d, want %d", g.N(), n)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}
