package graph

import (
	"bytes"
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
//     the CSR derives by transposing out-rows, not from the index;
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
		var row []NodeID
		for v := 0; v < g.N(); v++ {
			id := NodeID(v)
			if row = ig.AppendIn(id, row[:0]); !equalIDs(row, g.In(id)) {
				t.Fatalf("%+v seed %d: in-row of %d: implicit %v, CSR %v", spec, seed, v, row, g.In(id))
			}
			if got, want := ig.InDegree(id), g.InDegree(id); got != want {
				t.Fatalf("%+v seed %d: in-degree of %d: implicit %d, CSR %d", spec, seed, v, got, want)
			}
		}
	})
}

// rejects reports whether spec.check panics.
func rejects(spec GeomSpec) (bad bool) {
	defer func() { bad = recover() != nil }()
	spec.check()
	return false
}
