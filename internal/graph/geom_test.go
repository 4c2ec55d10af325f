package graph

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// naiveGeometric is the O(n²) reference construction: every ordered pair is
// tested directly against the sender's radius. The cell-grid path must be
// edge-identical to it.
func naiveGeometric(pts []GeometricPoint, torus bool) *Digraph {
	b := NewBuilder(len(pts))
	for u := range pts {
		rr := pts[u].Radius * pts[u].Radius
		for v := range pts {
			if u == v {
				continue
			}
			dx := math.Abs(pts[u].X - pts[v].X)
			dy := math.Abs(pts[u].Y - pts[v].Y)
			if torus {
				if dx > 0.5 {
					dx = 1 - dx
				}
				if dy > 0.5 {
					dy = 1 - dy
				}
			}
			if dx*dx+dy*dy <= rr {
				b.AddEdge(NodeID(u), NodeID(v))
			}
		}
	}
	return b.Build()
}

func sameDigraph(t *testing.T, got, want *Digraph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("size mismatch: got n=%d m=%d, want n=%d m=%d", got.N(), got.M(), want.N(), want.M())
	}
	for u := 0; u < want.N(); u++ {
		g, w := got.Out(NodeID(u)), want.Out(NodeID(u))
		if len(g) != len(w) {
			t.Fatalf("node %d: out-degree %d, want %d", u, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("node %d: out[%d] = %d, want %d", u, i, g[i], w[i])
			}
		}
	}
}

// TestGeometricMatchesNaive is the property test: across seeds, sizes, radii,
// boundary modes and placements, the cell-grid construction is edge-identical
// to the naive O(n²) reference.
func TestGeometricMatchesNaive(t *testing.T) {
	specs := []GeomSpec{
		{N: 1, Radius: 0.3},
		{N: 2, Radius: 0.9},
		{N: 50, Radius: 0.2},
		{N: 50, Radius: 0.2, Torus: true},
		{N: 200, Radius: 0.08},
		{N: 200, Radius: 0.08, Torus: true},
		{N: 200, Radius: 0.05, RadiusMax: 0.25},
		{N: 200, Radius: 0.05, RadiusMax: 0.25, Torus: true},
		{N: 150, Radius: 0.6, Torus: true}, // radius > 0.5: everything adjacent on the torus
		{N: 300, Radius: 0.002},            // radius far below cell width: isolated nodes
		{N: 120, Radius: 0.1, Placement: PlaceCluster},
		{N: 120, Radius: 0.1, Placement: PlaceCluster, Clusters: 3, Spread: 0.02},
		{N: 120, Radius: 0.1, RadiusMax: 0.3, Placement: PlaceCluster, Torus: true},
	}
	sc := NewScratch()
	for _, spec := range specs {
		for seed := uint64(0); seed < 5; seed++ {
			pts, _ := samplePoints(spec, rng.New(seed), nil, nil)
			for i := range pts {
				if pts[i].X < 0 || pts[i].X >= 1 || pts[i].Y < 0 || pts[i].Y >= 1 {
					t.Fatalf("spec %+v seed %d: point %d = (%g, %g) outside [0,1)", spec, seed, i, pts[i].X, pts[i].Y)
				}
			}
			got := sc.FromPoints(pts, spec.Torus)
			if err := got.Validate(); err != nil {
				t.Fatalf("spec %+v seed %d: %v", spec, seed, err)
			}
			sameDigraph(t, got, naiveGeometric(pts, spec.Torus))
		}
	}
}

// TestGeometricScratchReuse checks that regenerating through one scratch
// yields the same instance as a fresh scratch (stale storage never leaks).
// G(n,p) builds are interleaved with the geometric ones: a build with equal
// radii serves both sides from one row array and parks the other, and every
// later build, geometric or G(n,p), must get both arrays back intact.
func TestGeometricScratchReuse(t *testing.T) {
	sc := NewScratch()
	specs := []GeomSpec{
		{N: 300, Radius: 0.1, Torus: true},
		{N: 40, Radius: 0.4},
		{N: 500, Radius: 0.05, RadiusMax: 0.1},
		{N: 120, Radius: 0.1, RadiusMax: 0.3, Placement: PlaceCluster, Torus: true},
	}
	check := func(what string, got, want *Digraph) {
		t.Helper()
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !digraphsEqual(got, want) {
			t.Fatalf("%s: the reused scratch's graph differs from a fresh build", what)
		}
	}
	for trial := 0; trial < 3; trial++ {
		for i, spec := range specs {
			seed := uint64(trial)*31 + uint64(spec.N)
			got, _ := sc.Geometric(spec, rng.New(seed))
			want, _ := Geometric(spec, rng.New(seed))
			check(fmt.Sprintf("trial %d spec %+v", trial, spec), got, want)
			n := 64 + spec.N/2
			if i%2 == 0 {
				check(fmt.Sprintf("trial %d GNPDirected after spec %d", trial, i),
					sc.GNPDirected(n, 0.05, rng.New(seed)), GNPDirected(n, 0.05, rng.New(seed)))
			} else {
				got, _ = sc.GNPHetero(n, 0.01, 0.1, rng.New(seed))
				want, _ = NewScratch().GNPHetero(n, 0.01, 0.1, rng.New(seed))
				check(fmt.Sprintf("trial %d GNPHetero after spec %d", trial, i), got, want)
			}
		}
	}
}

func TestGeometricDeterminism(t *testing.T) {
	spec := GeomSpec{N: 256, Radius: 0.07, RadiusMax: 0.2, Placement: PlaceCluster, Torus: true}
	a, ptsA := Geometric(spec, rng.New(99))
	b, ptsB := Geometric(spec, rng.New(99))
	sameDigraph(t, a, b)
	for i := range ptsA {
		if ptsA[i] != ptsB[i] {
			t.Fatalf("point %d differs between identically seeded runs", i)
		}
	}
}

func TestRGGSymmetricAndThreshold(t *testing.T) {
	n := 900
	rc := ConnectivityRadius(n)
	if want := math.Sqrt(math.Log(float64(n)) / (math.Pi * float64(n))); math.Abs(rc-want) > 1e-15 {
		t.Fatalf("ConnectivityRadius = %g, want %g", rc, want)
	}
	// Homogeneous radii: RGG is symmetric; comfortably above the threshold
	// it is connected, far below it it is not.
	above := RGG(n, 2*rc, false, rng.New(5))
	if !above.IsSymmetric() {
		t.Fatal("RGG must be symmetric")
	}
	if !IsStronglyConnected(above) {
		t.Fatal("RGG at 2·r_c should be connected")
	}
	below := RGG(n, 0.3*rc, false, rng.New(5))
	if IsStronglyConnected(below) {
		t.Fatal("RGG at 0.3·r_c should be disconnected")
	}
}

func TestClusterPlacementIsHeterogeneous(t *testing.T) {
	// Clustered placement should concentrate mass: the max cell occupancy of
	// a coarse grid must clearly exceed the uniform expectation.
	n := 2000
	maxOcc := func(pts []GeometricPoint) int {
		const k = 8
		var occ [k * k]int
		for _, p := range pts {
			cx, cy := int(p.X*k), int(p.Y*k)
			occ[cy*k+cx]++
		}
		m := 0
		for _, c := range occ {
			if c > m {
				m = c
			}
		}
		return m
	}
	uni, _ := samplePoints(GeomSpec{N: n, Radius: 0.05}, rng.New(3), nil, nil)
	clu, _ := samplePoints(GeomSpec{N: n, Radius: 0.05, Placement: PlaceCluster, Clusters: 5, Spread: 0.03}, rng.New(3), nil, nil)
	if mu, mc := maxOcc(uni), maxOcc(clu); mc < 3*mu {
		t.Fatalf("cluster placement not heterogeneous: max occupancy %d vs uniform %d", mc, mu)
	}
}

func TestMobileNetworkWaypoint(t *testing.T) {
	spec := GeomSpec{N: 200, Radius: 0.12}
	m := NewMobileNetwork(spec, MobilityWaypoint, 0.02, 0.05, rng.New(11))
	sc := NewScratch()
	prev := append([]GeometricPoint(nil), m.Points()...)
	for e := 0; e < 10; e++ {
		g := m.Snapshot(sc)
		if err := g.Validate(); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		sameDigraph(t, g, naiveGeometric(m.Points(), spec.Torus))
		m.Advance()
		// Waypoint motion is bounded by vmax per epoch and keeps radii fixed.
		for i, p := range m.Points() {
			d := math.Hypot(p.X-prev[i].X, p.Y-prev[i].Y)
			if d > 0.05+1e-12 {
				t.Fatalf("epoch %d: node %d moved %g > vmax", e, i, d)
			}
			if p.Radius != prev[i].Radius {
				t.Fatalf("epoch %d: node %d radius changed", e, i)
			}
			if p.X < 0 || p.X >= 1 || p.Y < 0 || p.Y >= 1 {
				t.Fatalf("epoch %d: node %d left the unit square", e, i)
			}
		}
		copy(prev, m.Points())
	}
}

func TestMobileNetworkResample(t *testing.T) {
	spec := GeomSpec{N: 150, Radius: 0.05, RadiusMax: 0.2, Torus: true}
	m := NewMobileNetwork(spec, MobilityResample, 0, 0, rng.New(4))
	radii := make([]float64, spec.N)
	for i, p := range m.Points() {
		radii[i] = p.Radius
	}
	sc := NewScratch()
	moved := false
	prev := append([]GeometricPoint(nil), m.Points()...)
	for e := 0; e < 5; e++ {
		m.Advance()
		for i, p := range m.Points() {
			if p.Radius != radii[i] {
				t.Fatalf("epoch %d: node %d radius changed under resample", e, i)
			}
			if p.X != prev[i].X || p.Y != prev[i].Y {
				moved = true
			}
		}
		g := m.Snapshot(sc)
		sameDigraph(t, g, naiveGeometric(m.Points(), spec.Torus))
		copy(prev, m.Points())
	}
	if !moved {
		t.Fatal("resample mobility never moved any node")
	}
}
