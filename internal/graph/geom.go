package graph

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/rng"
)

// This file is the geometric ad hoc topology subsystem: random geometric /
// unit-disk graphs on the unit square or torus, density-heterogeneous
// placement (Matérn-style clustering), and per-node transmission radii
// (heterogeneous transmit power ⇒ asymmetric links). Every geometric graph,
// implicit or materialized, comes from one neighbour search: the ImplicitGeom
// cell-grid index (implicit.go). Scratch.FromPoints builds that index into
// reusable storage and writes its rows as CSR adjacency, so construction is
// O(n + m) expected and sweep trial loops regenerate topologies
// allocation-free — there is no O(n²) pairwise scan anywhere on this path.

// Placement selects how node positions are sampled in the unit square.
type Placement int

const (
	// PlaceUniform scatters nodes independently and uniformly.
	PlaceUniform Placement = iota
	// PlaceCluster is a Matérn-style cluster process: Clusters parent sites
	// are placed uniformly, then every node picks a uniform parent and
	// scatters around it with a Gaussian of standard deviation Spread.
	// Density is heterogeneous: dense blobs separated by near-empty space.
	PlaceCluster
)

// GeomSpec describes one geometric topology family instance.
type GeomSpec struct {
	// N is the node count.
	N int
	// Radius is the (minimum) transmission radius. With RadiusMax unset or
	// equal, every node transmits to distance Radius and the graph is a
	// symmetric unit-disk graph.
	Radius float64
	// RadiusMax, when > Radius, gives every node its own radius uniform in
	// [Radius, RadiusMax] — heterogeneous transmit power, so u may hear v
	// without v hearing u (the paper's asymmetric-link motivation).
	RadiusMax float64
	// Torus wraps distances around the unit square, removing boundary
	// effects (the standard trick for clean threshold experiments).
	Torus bool
	// Placement selects the point process (default PlaceUniform).
	Placement Placement
	// Clusters is the number of Matérn parent sites for PlaceCluster
	// (default ≈ √N when unset).
	Clusters int
	// Spread is the Gaussian scatter radius around a parent for
	// PlaceCluster (default 2·Radius when unset).
	Spread float64
}

// ConnectivityRadius returns the sharp connectivity threshold radius of a
// uniform RGG on the unit square, r_c(n) = sqrt(ln n / (π n)): below it the
// graph has isolated vertices w.h.p., above it it is connected w.h.p.
// (Gupta–Kumar / Penrose). Geometric experiments parameterise radii as
// multiples of this quantity.
func ConnectivityRadius(n int) float64 {
	if n < 2 {
		return math.Sqrt2
	}
	return math.Sqrt(math.Log(float64(n)) / (math.Pi * float64(n)))
}

func (spec GeomSpec) check() {
	if spec.N < 1 {
		panic("graph: geometric spec needs N >= 1")
	}
	// Negated ranges, so NaN radii are rejected too.
	if !(spec.Radius > 0 && spec.Radius <= math.Sqrt2) {
		panic(fmt.Sprintf("graph: geometric radius %g out of (0, sqrt(2)]", spec.Radius))
	}
	if spec.RadiusMax != 0 && !(spec.RadiusMax >= spec.Radius && spec.RadiusMax <= math.Sqrt2) {
		panic(fmt.Sprintf("graph: geometric radius range [%g, %g] invalid", spec.Radius, spec.RadiusMax))
	}
	if spec.Placement == PlaceCluster && spec.Clusters < 0 {
		panic("graph: negative cluster count")
	}
}

// samplePoints fills dst (resized as needed) with spec.N positions and radii
// drawn from r, and returns it along with the (possibly grown) parent-site
// buffer — callers that sample repeatedly pass the returned buffer back in so
// clustered placement stays allocation-free too. All randomness comes from r
// in a fixed order, so instances are pure functions of the seed.
func samplePoints(spec GeomSpec, r *rng.RNG, dst []GeometricPoint, parents []float64) ([]GeometricPoint, []float64) {
	spec.check()
	if cap(dst) < spec.N {
		dst = make([]GeometricPoint, spec.N)
	}
	dst = dst[:spec.N]
	switch spec.Placement {
	case PlaceUniform:
		for i := range dst {
			dst[i].X, dst[i].Y = r.Float64(), r.Float64()
		}
	case PlaceCluster:
		k := spec.Clusters
		if k == 0 {
			k = int(math.Ceil(math.Sqrt(float64(spec.N))))
		}
		if k > spec.N {
			k = spec.N
		}
		spread := spec.Spread
		if spread <= 0 {
			spread = 2 * spec.Radius
		}
		// Parent sites first (x at [i], y at [k+i]), then children; one
		// parent draw + two Gaussian scatters per node.
		if cap(parents) < 2*k {
			parents = make([]float64, 2*k)
		}
		parents = parents[:2*k]
		for i := 0; i < k; i++ {
			parents[i], parents[k+i] = r.Float64(), r.Float64()
		}
		for i := range dst {
			p := r.Intn(k)
			dst[i].X = wrapOrReflect(parents[p]+spread*r.Normal(), spec.Torus)
			dst[i].Y = wrapOrReflect(parents[k+p]+spread*r.Normal(), spec.Torus)
		}
	default:
		panic("graph: unknown placement")
	}
	if spec.RadiusMax > spec.Radius {
		for i := range dst {
			dst[i].Radius = spec.Radius + (spec.RadiusMax-spec.Radius)*r.Float64()
		}
	} else {
		for i := range dst {
			dst[i].Radius = spec.Radius
		}
	}
	return dst, parents
}

// wrapOrReflect maps a scattered coordinate back into [0, 1): modular wrap on
// the torus (cluster mass is conserved across the seam), mirror reflection on
// the square (keeps boundary clusters dense instead of clipping them).
func wrapOrReflect(x float64, torus bool) float64 {
	if torus {
		x = math.Mod(x, 1)
		if x < 0 {
			x++
		}
		if x >= 1 { // -ε + 1 can round to exactly 1.0
			x = 0
		}
		return x
	}
	// Reflect x into [0, 2) period, then fold [1, 2) back onto (0, 1].
	x = math.Mod(math.Abs(x), 2)
	if x >= 1 {
		x = 2 - x
	}
	if x == 1 { // fold the closed endpoint back inside
		x = math.Nextafter(1, 0)
	}
	return x
}

// Geometric samples a geometric instance into the scratch's reusable storage
// and returns the digraph plus the sampled points. Both alias scratch storage
// and are valid only until the next generation call on s.
func (s *Scratch) Geometric(spec GeomSpec, r *rng.RNG) (*Digraph, []GeometricPoint) {
	s.pts, s.parents = samplePoints(spec, r, s.pts, s.parents)
	return s.FromPoints(s.pts, spec.Torus), s.pts
}

// FromPoints builds the geometric digraph for a fixed point set (u → v iff
// dist(u, v) ≤ pts[u].Radius) into the scratch's reusable storage: it
// indexes the points in the scratch's ImplicitGeom cell grid and writes the
// index's out-rows as they come, in cell order — O(n + m) expected for
// radii near the connectivity threshold. Both row arrays are reserved once
// for the expected edge count of a uniform placement, (n-1)·π·Σr², plus six
// standard deviations, instead of growing by repeated doubling; clustered
// placements, denser than that, still grow them as they go. No row is sorted:
// the counting transpose (finishIn) makes sorted in-rows out of any out-row
// order. When every radius is equal the graph is symmetric, so those sorted
// in-rows are the out-rows too, and the graph serves both sides from one
// row array, parking the other for the scratch's next build. Otherwise one
// more counting pass over the in-rows (sortOut) rewrites the out-rows in
// ascending order. The returned graph aliases scratch storage (valid until
// the next generation call); pts may be external (e.g. a mobility model's)
// and is not retained.
func (s *Scratch) FromPoints(pts []GeometricPoint, torus bool) *Digraph {
	ig := &s.geo
	ig.index(pts, torus)
	g := s.begin(len(pts))
	sumR2 := 0.0
	for i := range ig.cellPts {
		sumR2 += ig.cellPts[i].r2
	}
	// On the torus a pair's two edges are independent of every other
	// pair's, so the count's variance is at most twice its mean; on the
	// square πr² overstates the mean. A NaN radius fails the comparison
	// and reserves nothing.
	pairs := float64(len(pts)) * float64(len(pts)-1)
	mean := min(math.Pi*float64(len(pts)-1)*sumR2, pairs)
	if want := min(mean+6*math.Sqrt(2*mean)+64, pairs); want >= 0 {
		g.outTo = slices.Grow(g.outTo, int(want))
		g.inTo = slices.Grow(g.inTo[:0], int(want))
	}
	for u := range pts {
		g.outTo, _ = ig.appendRow(NodeID(u), g.outTo, false, false)
		g.outOff[u+1] = len(g.outTo)
	}
	s.finishIn()
	if ig.sameR {
		s.spareTo, s.spareOff = g.outTo, g.outOff
		g.outTo, g.outOff = g.inTo, g.inOff
	} else {
		s.sortOut()
	}
	return g
}

// Geometric samples a geometric instance with fresh storage (the convenience
// entry point; sweeps use Scratch.Geometric to reuse storage across trials).
// The graph it returns holds only its own rows, not the index and spare
// buffers of the scratch it was built in.
func Geometric(spec GeomSpec, r *rng.RNG) (*Digraph, []GeometricPoint) {
	g, pts := NewScratch().Geometric(spec, r)
	d := *g
	return &d, pts
}

// RGG samples the homogeneous random geometric graph RGG(n, radius) — the
// canonical unknown ad hoc network model: n uniform points, symmetric links
// between every pair within distance radius. torus selects wrap-around
// distances.
func RGG(n int, radius float64, torus bool, r *rng.RNG) *Digraph {
	g, _ := Geometric(GeomSpec{N: n, Radius: radius, Torus: torus}, r)
	return g
}
