package graph

import (
	"bytes"
	"math"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/rng"
)

// digitRun matches every maximal run of ASCII digits, which covers every
// number ReadEdgeList can parse from a header or an edge line.
var digitRun = regexp.MustCompile(`[0-9]+`)

// FuzzReadEdgeList feeds arbitrary bytes to ReadEdgeList. Each input must
// give an error or a graph that passes Validate and comes back unchanged
// through WriteEdgeList and ReadEdgeList; it must never panic. Inputs
// holding a number in (2^20, 2^31-1) are skipped: such a header or id
// legally declares a graph of millions of nodes, and building it would only
// measure the machine's memory. Numbers from 2^31-1 up stay in, since they
// must be rejected.
func FuzzReadEdgeList(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, run := range digitRun.FindAll(data, -1) {
			if x, err := strconv.ParseUint(string(run), 10, 64); err == nil && x > 1<<20 && x < maxNodes {
				t.Skip("declares a legal but huge graph")
			}
		}
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph is invalid: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("written edge list does not parse back: %v", err)
		}
		if !digraphsEqual(g, back) {
			t.Fatal("edge list round trip changed the graph")
		}
	})
}

// FuzzGeomRows builds fuzzed geometric instances (n ≤ 512, any radius pair,
// square or torus, uniform or clustered placement, any seed) both ways and
// checks that:
//   - Scratch.Geometric equals MaterializeImplicit of NewImplicitGeom at
//     the same seed, and both equal the O(n²) pairwise reference;
//   - every ImplicitGeom in-row and in-degree equals the CSR in-row, which
//     the CSR derives by transposing out-rows, not from the index, and
//     every ImplicitGeom out-degree equals the length of its out-row;
//   - with one radius for every node, every in-row equals the out-row;
//   - ImplicitFromPoints copies what it indexes: overwriting the caller's
//     points afterwards changes no row;
//   - the graph passes Validate.
//
// Specs that GeomSpec rejects are skipped.
func FuzzGeomRows(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint16, radius, radiusMax float64, torus, cluster bool, seed uint64) {
		spec := GeomSpec{N: 1 + int(n)%512, Radius: radius, RadiusMax: radiusMax, Torus: torus}
		if cluster {
			spec.Placement = PlaceCluster
		}
		if rejects(spec) {
			t.Skip("GeomSpec rejects the spec")
		}
		g, pts := NewScratch().Geometric(spec, rng.New(seed))
		if err := g.Validate(); err != nil {
			t.Fatalf("%+v seed %d: %v", spec, seed, err)
		}
		ig := NewImplicitGeom(spec, rng.New(seed))
		if !digraphsEqual(g, MaterializeImplicit(ig)) {
			t.Fatalf("%+v seed %d: Scratch.Geometric and the materialized ImplicitGeom differ", spec, seed)
		}
		if !digraphsEqual(g, naiveGeometric(pts, spec.Torus)) {
			t.Fatalf("%+v seed %d: cell-grid graph differs from the pairwise reference", spec, seed)
		}
		sameR := !(spec.RadiusMax > spec.Radius)
		var row []NodeID
		for v := 0; v < g.N(); v++ {
			id := NodeID(v)
			if row = ig.AppendIn(id, row[:0]); !equalIDs(row, g.In(id)) {
				t.Fatalf("%+v seed %d: in-row of %d: implicit %v, CSR %v", spec, seed, v, row, g.In(id))
			}
			if got, want := ig.InDegree(id), g.InDegree(id); got != want {
				t.Fatalf("%+v seed %d: in-degree of %d: implicit %d, CSR %d", spec, seed, v, got, want)
			}
			row = ig.AppendOut(id, row[:0])
			if got := ig.OutDegree(id); got != len(row) {
				t.Fatalf("%+v seed %d: OutDegree(%d) = %d, out-row length %d", spec, seed, v, got, len(row))
			}
			if sameR && !equalIDs(g.In(id), g.Out(id)) {
				t.Fatalf("%+v seed %d: one radius, but in-row %v and out-row %v of %d differ", spec, seed, g.In(id), g.Out(id), v)
			}
		}
		own := append([]GeometricPoint(nil), pts...)
		fromPts := ImplicitFromPoints(own, spec.Torus)
		for i := range own {
			own[i] = GeometricPoint{X: 0.5, Y: 0.5, Radius: math.Sqrt2}
		}
		if !digraphsEqual(g, MaterializeImplicit(fromPts)) {
			t.Fatalf("%+v seed %d: overwriting the points after ImplicitFromPoints changed its rows", spec, seed)
		}
	})
}

// FuzzImplicitGNPRows builds fuzzed implicit G(n,p) instances (n ≤ 16384,
// S1's reduced size, any p in [0, 1], any seed) and checks that:
//   - every out-row equals gnpRowRef's geometric-skip row;
//   - every out-row is strictly increasing and has no self-loop;
//   - MaterializeImplicit's out-rows are those rows and its in-rows their
//     transpose.
//
// Inputs whose expected edge count n(n-1)p exceeds 2^22 are skipped, so
// that one input stays fast; p = 1 still runs up to n = 2048.
func FuzzImplicitGNPRows(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint16, p float64, seed uint64) {
		nn := 1 + int(n)%16384
		if !(p >= 0 && p <= 1) {
			t.Skip("p outside [0, 1]")
		}
		if float64(nn)*float64(nn-1)*p > 1<<22 {
			t.Skip("more than 2^22 expected edges")
		}
		ig := NewImplicitGNP(nn, p, seed)
		m := MaterializeImplicit(ig)
		in := make([][]NodeID, nn)
		var row []NodeID
		for v := 0; v < nn; v++ {
			u := NodeID(v)
			want := gnpRowRef(nn, p, seed, u)
			if row = ig.AppendOut(u, row[:0]); !equalIDs(row, want) {
				t.Fatalf("n %d p %g seed %d: row %d is %v, reference %v", nn, p, seed, v, row, want)
			}
			for i, w := range row {
				if w == u || (i > 0 && w <= row[i-1]) {
					t.Fatalf("n %d p %g seed %d: row %d is not strictly increasing and loop-free: %v", nn, p, seed, v, row)
				}
				in[w] = append(in[w], u)
			}
			if !equalIDs(m.Out(u), row) {
				t.Fatalf("n %d p %g seed %d: materialized row %d differs", nn, p, seed, v)
			}
		}
		for v := 0; v < nn; v++ {
			id := NodeID(v)
			if !equalIDs(m.In(id), in[v]) {
				t.Fatalf("n %d p %g seed %d: materialized in-row %d is %v, transpose %v", nn, p, seed, v, m.In(id), in[v])
			}
		}
	})
}

// gnpRowRef is the reference out-row u of ImplicitGNP(n, p, seed), written
// in the step form of a geometric-skip sampler over the n-1 targets
// [0, n) \ {u}: p ≤ 0 selects nothing and p ≥ 1 everything, neither with a
// draw; otherwise the first index is Geometric(p), and each step past a
// selected index draws 1 + Geometric(p) more, so the draw that overshoots
// n-1 ends the row. Index i maps to target i, or i+1 from u on.
func gnpRowRef(n int, p float64, seed uint64, u NodeID) []NodeID {
	r := rng.New(rng.SubSeed(seed, uint64(u)))
	k := n - 1
	var row []NodeID
	target := func(i int) NodeID {
		if NodeID(i) >= u {
			return NodeID(i + 1)
		}
		return NodeID(i)
	}
	switch {
	case k <= 0 || p <= 0:
		return row
	case p >= 1:
		for i := 0; i < k; i++ {
			row = append(row, target(i))
		}
		return row
	}
	next := r.Geometric(p)
	for next < k {
		i := next
		next += 1 + r.Geometric(p)
		row = append(row, target(i))
	}
	return row
}

// rejects reports whether spec.check panics.
func rejects(spec GeomSpec) (bad bool) {
	defer func() { bad = recover() != nil }()
	spec.check()
	return false
}
