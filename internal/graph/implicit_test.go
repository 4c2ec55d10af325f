package graph

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// assertSameEdges checks that g (implicit) and d (materialized) serve
// identical out-rows for every node and, when g serves in-rows, identical
// in-rows and degrees too.
func assertSameEdges(t *testing.T, label string, g Implicit, d *Digraph) {
	t.Helper()
	if g.N() != d.N() {
		t.Fatalf("%s: n mismatch: implicit %d, materialized %d", label, g.N(), d.N())
	}
	in, hasIn := g.(InRows)
	var row []NodeID
	for v := 0; v < g.N(); v++ {
		id := NodeID(v)
		row = g.AppendOut(id, row[:0])
		if want := d.Out(id); !equalIDs(row, want) {
			t.Fatalf("%s: out-row of %d mismatch:\nimplicit     %v\nmaterialized %v", label, v, row, want)
		}
		if !hasIn {
			continue
		}
		if got, want := in.OutDegree(id), d.OutDegree(id); got != want {
			t.Fatalf("%s: out-degree of %d: implicit %d, materialized %d", label, v, got, want)
		}
		row = in.AppendIn(id, row[:0])
		if want := d.In(id); !equalIDs(row, want) {
			t.Fatalf("%s: in-row of %d mismatch:\nimplicit     %v\nmaterialized %v", label, v, row, want)
		}
		if got, want := in.InDegree(id), d.InDegree(id); got != want {
			t.Fatalf("%s: in-degree of %d: implicit %d, materialized %d", label, v, got, want)
		}
	}
}

func equalIDs(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestImplicitGNPMatchesMaterialized pins the implicit G(n,p) view
// edge-identical to its own materialization across seeds and sizes, and the
// materialization a valid CSR digraph.
func TestImplicitGNPMatchesMaterialized(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 257, 1024} {
		for _, seed := range []uint64{1, 42, 0xfeed} {
			p := 2 * math.Log(float64(n)+1) / (float64(n) + 1)
			g := NewImplicitGNP(n, p, seed)
			d := MaterializeImplicit(g)
			if err := d.Validate(); err != nil {
				t.Fatalf("n=%d seed=%d: materialization invalid: %v", n, seed, err)
			}
			assertSameEdges(t, "gnp", g, d)
		}
	}
}

// TestImplicitGNPDegenerateProbabilities covers the p=0 and p=1 ends of the
// skip sampler.
func TestImplicitGNPDegenerateProbabilities(t *testing.T) {
	empty := NewImplicitGNP(9, 0, 3)
	full := NewImplicitGNP(9, 1, 3)
	for v := NodeID(0); v < 9; v++ {
		if deg := len(empty.AppendOut(v, nil)); deg != 0 {
			t.Fatalf("p=0: node %d has out-degree %d", v, deg)
		}
		if deg := len(full.AppendOut(v, nil)); deg != 8 {
			t.Fatalf("p=1: node %d has out-degree %d, want 8", v, deg)
		}
	}
	d := MaterializeImplicit(full)
	if !d.IsSymmetric() {
		t.Fatal("p=1 should materialize the complete digraph")
	}
}

// TestImplicitGNPRowDeterminism pins the re-derivation contract: two
// enumerations of the same (seed, node) row are identical, and enumerating
// other rows in between does not perturb them.
func TestImplicitGNPRowDeterminism(t *testing.T) {
	g := NewImplicitGNP(512, 0.03, 99)
	first := make([][]NodeID, g.N())
	for v := 0; v < g.N(); v++ {
		first[v] = g.AppendOut(NodeID(v), nil)
	}
	var row []NodeID
	for v := g.N() - 1; v >= 0; v-- { // different order on purpose
		row = g.AppendOut(NodeID(v), row[:0])
		if !equalIDs(row, first[v]) {
			t.Fatalf("row %d changed between enumerations:\nfirst  %v\nsecond %v", v, first[v], row)
		}
	}
}

// TestImplicitGNPRowsAreIndependentStreams guards against the n-1 row
// streams collapsing to one: distinct nodes must not share a row pattern
// just because the graph seed is shared.
func TestImplicitGNPRowsAreIndependentStreams(t *testing.T) {
	g := NewImplicitGNP(256, 0.1, 7)
	a := g.AppendOut(3, nil)
	b := g.AppendOut(4, nil)
	if equalIDs(a, b) {
		t.Fatalf("rows 3 and 4 are identical (%v); per-row substreams are broken", a)
	}
}

// TestImplicitGeomMatchesScratch pins the implicit geometric view
// edge-identical to Scratch.FromPoints for the same sampled points, across
// torus/square, homogeneous and heterogeneous radii, and placements.
func TestImplicitGeomMatchesScratch(t *testing.T) {
	specs := []GeomSpec{
		{N: 1, Radius: 0.5},
		{N: 100, Radius: 2 * ConnectivityRadius(100)},
		{N: 100, Radius: 2 * ConnectivityRadius(100), Torus: true},
		{N: 300, Radius: ConnectivityRadius(300), RadiusMax: 3 * ConnectivityRadius(300), Torus: true},
		{N: 300, Radius: ConnectivityRadius(300), RadiusMax: 3 * ConnectivityRadius(300)},
		{N: 200, Radius: 0.9, Torus: true}, // radius near the cell-cap regime
		{N: 256, Radius: 2 * ConnectivityRadius(256), Placement: PlaceCluster, Torus: true},
	}
	sc := NewScratch()
	for i, spec := range specs {
		for _, seed := range []uint64{5, 77} {
			want := sc.FromPoints(first(samplePoints(spec, rng.New(seed), nil, nil)), spec.Torus)
			ig := NewImplicitGeom(spec, rng.New(seed))
			assertSameEdges(t, "geom", ig, want)
			// And the generic materialization bridge agrees too.
			d := MaterializeImplicit(ig)
			if err := d.Validate(); err != nil {
				t.Fatalf("spec %d seed %d: materialization invalid: %v", i, seed, err)
			}
			assertSameEdges(t, "geom-materialized", ig, d)
		}
	}
}

func first(pts []GeometricPoint, _ []float64) []GeometricPoint { return pts }

// TestImplicitGeomConsumesRNGLikeScratch pins the shared-stream contract
// between NewImplicitGeom and Scratch.Geometric: after constructing each
// from equally seeded generators, the two RNGs must be in the same state.
func TestImplicitGeomConsumesRNGLikeScratch(t *testing.T) {
	spec := GeomSpec{N: 200, Radius: ConnectivityRadius(200), RadiusMax: 2 * ConnectivityRadius(200), Torus: true}
	r1, r2 := rng.New(11), rng.New(11)
	NewScratch().Geometric(spec, r1)
	NewImplicitGeom(spec, r2)
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("NewImplicitGeom consumed the RNG differently from Scratch.Geometric")
	}
}

// TestDigraphImplementsImplicit pins the CSR conformance: the Append
// accessors copy the aliasing rows.
func TestDigraphImplementsImplicit(t *testing.T) {
	d := FromEdges(4, [][2]NodeID{{0, 1}, {0, 2}, {1, 2}, {3, 0}})
	var g Implicit = d
	var in InRows = d
	if got := g.AppendOut(0, nil); !equalIDs(got, []NodeID{1, 2}) {
		t.Fatalf("AppendOut(0) = %v", got)
	}
	if got := in.AppendIn(2, nil); !equalIDs(got, []NodeID{0, 1}) {
		t.Fatalf("AppendIn(2) = %v", got)
	}
	buf := []NodeID{9}
	if got := g.AppendOut(3, buf); !equalIDs(got, []NodeID{9, 0}) {
		t.Fatalf("AppendOut must append, got %v", got)
	}
}
