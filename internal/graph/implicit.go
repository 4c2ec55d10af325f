package graph

import (
	"math"
	"slices"

	"repro/internal/rng"
)

// This file is the implicit-topology subsystem: graph views that serve
// adjacency on demand instead of storing edge lists, so the round engine can
// simulate the paper's generative families (G(n,p) at p = d/n, geometric
// UDG near the connectivity radius) at node counts where a materialized CSR
// would not fit in memory — the state is O(n), not O(n + m).
//
// Determinism contract: an implicit graph is a pure function of its
// construction inputs. Repeated enumeration of the same node's row yields
// the identical neighbour sequence (strictly increasing NodeID order, no
// self-loops), and MaterializeImplicit of the view is edge-identical to the
// view itself — which is what lets the engine equivalence suites pin
// implicit and materialized runs bit-identical.

// Implicit is the read interface every consumer of a graph runs against:
// the round engine's push delivery, MaterializeImplicit and the energy
// model's partition check. *Digraph implements it by aliasing its CSR rows;
// generative backends re-derive rows on demand.
//
// Contract: AppendOut(v, dst) appends v's out-neighbours ("the nodes that
// hear v") to dst in strictly increasing id order, with no self-loops, and
// returns the extended slice. Two calls with the same v append the same
// sequence.
type Implicit interface {
	N() int
	AppendOut(v NodeID, dst []NodeID) []NodeID
}

// InRows is the in-side a graph serves when its in-rows cost O(row), like
// its out-rows: everything the engine's pull kernel and its cost model read.
// *Digraph and *ImplicitGeom implement it; *ImplicitGNP does not, since
// "who hears me" would mean inverting n-1 independent row streams, so the
// engine runs it push-only.
//
// Contract: AppendIn is AppendOut's contract for in-neighbours ("the nodes
// v hears"), and OutDegree/InDegree agree with the lengths of the appended
// rows.
type InRows interface {
	OutDegree(v NodeID) int
	InDegree(v NodeID) int
	AppendIn(v NodeID, dst []NodeID) []NodeID
}

// AppendOut appends v's out-neighbours to dst (the Implicit interface; the
// zero-copy accessor is Out).
func (g *Digraph) AppendOut(v NodeID, dst []NodeID) []NodeID { return append(dst, g.Out(v)...) }

// AppendIn appends v's in-neighbours to dst (the InRows interface; the
// zero-copy accessor is In).
func (g *Digraph) AppendIn(v NodeID, dst []NodeID) []NodeID { return append(dst, g.In(v)...) }

var _ Implicit = (*Digraph)(nil)
var _ Implicit = (*ImplicitGNP)(nil)
var _ Implicit = (*ImplicitGeom)(nil)
var _ InRows = (*Digraph)(nil)
var _ InRows = (*ImplicitGeom)(nil)

// MaterializeImplicit builds the explicit CSR digraph with exactly the edge
// set g serves — the overlap-size bridge for the equivalence tests and for
// campaign points that compare the two representations. Rows arrive sorted
// (the Implicit contract), so the out-CSR assembles by concatenation and the
// in-adjacency by the shared counting transpose.
func MaterializeImplicit(g Implicit) *Digraph {
	return NewScratch().fromRows(g)
}

// ImplicitGNP is the directed G(n,p) random digraph served implicitly: row u
// is re-derived on every query by geometric skipping (Batagelj–Brandes) over
// a substream seeded purely by (seed, u), so enumeration is O(deg(u))
// expected, bit-stable across repetitions, and the whole graph costs O(1)
// memory. It serves out-rows only (it is not InRows), which keeps
// planet-scale runs on push delivery and O(n) in memory.
//
// Note the edge set differs from Scratch.GNPDirected at equal seeds: that
// generator draws ONE skip stream over the linear index of all ordered
// pairs, while this one draws an independent stream per row (the property
// that makes rows re-derivable). Both are exact G(n,p) samplers; compare an
// implicit instance against MaterializeImplicit of itself, never against the
// single-stream generator.
type ImplicitGNP struct {
	n    int
	p    float64
	seed uint64
}

// NewImplicitGNP returns the implicit G(n,p) instance identified by seed.
// Construction is O(1): no randomness is consumed and no edges are drawn.
func NewImplicitGNP(n int, p float64, seed uint64) *ImplicitGNP {
	if n < 1 {
		panic("graph: GNP needs n >= 1")
	}
	if n > 1<<31-1 {
		panic("graph: too many nodes for int32 ids")
	}
	if !(p >= 0 && p <= 1) {
		panic("graph: GNP needs p in [0,1]")
	}
	return &ImplicitGNP{n: n, p: p, seed: seed}
}

// N returns the number of nodes.
func (g *ImplicitGNP) N() int { return g.n }

// AppendOut appends row u — strictly increasing, self-loop-free — to dst.
// The row is a fresh geometric-skip pass over the n-1 possible targets,
// seeded by SubSeed(seed, u): the first selected target index is
// Geometric(p) and each next one the previous + 1 + Geometric(p), drawn
// as two rng.AppendSkips calls (the targets below u, then those above it),
// so repeated calls append identical sequences and the RNG lives on the
// stack (no allocation beyond dst growth). At p = 1 every Geometric is 0
// without a draw, so the row holds all n-1 other nodes.
func (g *ImplicitGNP) AppendOut(u NodeID, dst []NodeID) []NodeID {
	if g.p <= 0 {
		return dst
	}
	var r rng.RNG
	r.Reseed(rng.SubSeed(g.seed, uint64(u)))
	dst, gap := r.AppendSkips(dst, 0, r.Geometric(g.p), int(u), g.p)
	dst, _ = r.AppendSkips(dst, u+1, gap, g.n-1-int(u), g.p)
	return dst
}

// ImplicitGeom serves a geometric (RGG/UDG, optionally heterogeneous-radius)
// digraph from a coordinates-only index: the points bucketed into a uniform
// cell grid whose cells are at least the maximum radius wide, holding node
// ids only — no edge lists. It is the package's one geometric neighbour
// search: Scratch.FromPoints builds the same index into reusable storage and
// materializes its out-rows. Both edge directions are O(row) expected:
// out-rows (dist(u,v) ≤ r_u) and in-rows (dist(u,v) ≤ r_v) of a node both
// live in its 3×3 cell neighbourhood. Memory is O(n) regardless of density.
type ImplicitGeom struct {
	pts     []GeometricPoint
	torus   bool
	cols    int
	cellW   float64
	cellOff []int
	cellIDs []NodeID
}

// NewImplicitGeom samples a geometric instance and returns its implicit
// view. It consumes r identically to Scratch.Geometric, so at equal seeds
// the two produce edge-identical graphs (the equivalence tests pin this).
func NewImplicitGeom(spec GeomSpec, r *rng.RNG) *ImplicitGeom {
	pts, _ := samplePoints(spec, r, nil, nil)
	return ImplicitFromPoints(pts, spec.Torus)
}

// ImplicitFromPoints indexes a fixed point set (u → v iff dist(u, v) ≤
// pts[u].Radius) without building adjacency. pts is retained (not copied).
func ImplicitFromPoints(pts []GeometricPoint, torus bool) *ImplicitGeom {
	ig := &ImplicitGeom{}
	ig.index(pts, torus)
	return ig
}

// index points ig at pts and buckets them by cell, reusing ig's storage when
// it is large enough. Cells are at least rmax wide, so a disk of radius rmax
// is covered by the 3×3 neighbourhood, and the cell count is capped at ~n so
// the index stays O(n) even for tiny radii.
func (ig *ImplicitGeom) index(pts []GeometricPoint, torus bool) {
	n := len(pts)
	if n < 1 {
		panic("graph: geometric needs at least one point")
	}
	if n > 1<<31-1 {
		panic("graph: too many nodes for int32 ids")
	}
	rmax := 0.0
	for i := range pts {
		if pts[i].Radius > rmax {
			rmax = pts[i].Radius
		}
	}
	if rmax <= 0 {
		panic("graph: all radii must be positive")
	}
	cols := int(1 / rmax)
	if maxCols := int(math.Sqrt(float64(n))) + 1; cols > maxCols {
		cols = maxCols
	}
	if cols < 1 {
		cols = 1
	}
	ig.pts, ig.torus, ig.cols, ig.cellW = pts, torus, cols, 1.0/float64(cols)

	// Counting sort into CSR-style buckets; each bucket's start offset is its
	// fill cursor, and one shift restores the offsets afterwards.
	nCells := cols * cols
	ig.cellOff = growOffsets(ig.cellOff, nCells+1)
	ig.cellIDs = growIDs(ig.cellIDs, n)
	for i := range pts {
		ig.cellOff[ig.cellOf(pts[i].Y)*cols+ig.cellOf(pts[i].X)+1]++
	}
	for c := 0; c < nCells; c++ {
		ig.cellOff[c+1] += ig.cellOff[c]
	}
	for i := range pts {
		c := ig.cellOf(pts[i].Y)*cols + ig.cellOf(pts[i].X)
		ig.cellIDs[ig.cellOff[c]] = NodeID(i)
		ig.cellOff[c]++
	}
	copy(ig.cellOff[1:], ig.cellOff[:nCells])
	ig.cellOff[0] = 0
}

func (ig *ImplicitGeom) cellOf(x float64) int {
	c := int(x / ig.cellW)
	if c >= ig.cols {
		c = ig.cols - 1
	}
	if c < 0 {
		c = 0
	}
	return c
}

// N returns the number of nodes.
func (ig *ImplicitGeom) N() int { return len(ig.pts) }

// Points returns the indexed point set. The slice is internal storage and
// must not be modified (moving a point would desynchronise the grid).
func (ig *ImplicitGeom) Points() []GeometricPoint { return ig.pts }

// appendRow appends v's neighbours in one direction: out-rows keep
// candidates inside v's own radius, in-rows keep candidates whose radius
// reaches v. Every qualifying candidate is within rmax ≤ cellW of v, so the
// 3×3 cell neighbourhood covers both directions; it is deduplicated, so tiny
// grids and torus wrap-around never double-count a cell. Candidates arrive
// in grid order, not id order: AppendOut and AppendIn sort them, and
// Scratch.FromPoints sorts whole graphs by counting instead. When count is
// true nothing is appended and only the row length is returned.
func (ig *ImplicitGeom) appendRow(v NodeID, dst []NodeID, in, count bool) ([]NodeID, int) {
	p := ig.pts[v]
	cols := ig.cols
	cx, cy := ig.cellOf(p.X), ig.cellOf(p.Y)
	rr := p.Radius * p.Radius
	var nbr [9]int
	cells := nbr[:0]
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			nx, ny := cx+dx, cy+dy
			if ig.torus {
				nx, ny = (nx+cols)%cols, (ny+cols)%cols
			} else if nx < 0 || ny < 0 || nx >= cols || ny >= cols {
				continue
			}
			key := ny*cols + nx
			if !slices.Contains(cells, key) {
				cells = append(cells, key)
			}
		}
	}
	start := len(dst)
	deg := 0
	for _, c := range cells {
		for _, w := range ig.cellIDs[ig.cellOff[c]:ig.cellOff[c+1]] {
			if w == v {
				continue
			}
			q := ig.pts[w]
			lim := rr
			if in {
				lim = q.Radius * q.Radius
			}
			ddx := math.Abs(q.X - p.X)
			ddy := math.Abs(q.Y - p.Y)
			if ig.torus {
				if ddx > 0.5 {
					ddx = 1 - ddx
				}
				if ddy > 0.5 {
					ddy = 1 - ddy
				}
			}
			if ddx*ddx+ddy*ddy <= lim {
				if count {
					deg++
				} else {
					dst = append(dst, w)
				}
			}
		}
	}
	if !count {
		deg = len(dst) - start
	}
	return dst, deg
}

// AppendOut appends the nodes that hear v (dist(v, w) ≤ v's radius).
func (ig *ImplicitGeom) AppendOut(v NodeID, dst []NodeID) []NodeID {
	start := len(dst)
	dst, _ = ig.appendRow(v, dst, false, false)
	slices.Sort(dst[start:])
	return dst
}

// AppendIn appends the nodes v hears (dist(u, v) ≤ u's radius).
func (ig *ImplicitGeom) AppendIn(v NodeID, dst []NodeID) []NodeID {
	start := len(dst)
	dst, _ = ig.appendRow(v, dst, true, false)
	slices.Sort(dst[start:])
	return dst
}

// OutDegree counts v's out-row without materialising it.
func (ig *ImplicitGeom) OutDegree(v NodeID) int {
	_, deg := ig.appendRow(v, nil, false, true)
	return deg
}

// InDegree counts v's in-row without materialising it.
func (ig *ImplicitGeom) InDegree(v NodeID) int {
	_, deg := ig.appendRow(v, nil, true, true)
	return deg
}
