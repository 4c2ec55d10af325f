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
// cell grid whose cells are at least the maximum radius wide, with each
// point's x, y and squared radius copied in cell order beside its id — no
// edge lists, and no reference to the caller's points. It is the package's
// one geometric neighbour search: Scratch.FromPoints builds the same index
// into reusable storage and materializes its out-rows. Both edge directions
// are O(row) expected: out-rows (dist(u,v) ≤ r_u) and in-rows (dist(u,v) ≤
// r_v) of a node both live in its 3×3 cell neighbourhood. Memory is O(n)
// regardless of density: 32 bytes per node (coordinates and r² in cell
// order, the id at each slot, each id's slot) plus one offset per cell.
type ImplicitGeom struct {
	torus   bool
	sameR   bool // every radius is equal, so every edge has its reverse
	cols    int
	cellW   float64
	cellOff []int       // cell c holds slots [cellOff[c], cellOff[c+1])
	cellPts []cellPoint // the point at each slot
	cellIDs []NodeID    // the node at each slot
	slot    []int32     // each node's slot
}

// cellPoint is an indexed point as the neighbour scan reads it.
type cellPoint struct{ x, y, r2 float64 }

// NewImplicitGeom samples a geometric instance and returns its implicit
// view. It consumes r identically to Scratch.Geometric, so at equal seeds
// the two produce edge-identical graphs (the equivalence tests pin this).
func NewImplicitGeom(spec GeomSpec, r *rng.RNG) *ImplicitGeom {
	pts, _ := samplePoints(spec, r, nil, nil)
	return ImplicitFromPoints(pts, spec.Torus)
}

// ImplicitFromPoints indexes a fixed point set (u → v iff dist(u, v) ≤
// pts[u].Radius) without building adjacency. The index copies what it
// reads, so pts is not retained and the caller may reuse it.
func ImplicitFromPoints(pts []GeometricPoint, torus bool) *ImplicitGeom {
	ig := &ImplicitGeom{}
	ig.index(pts, torus)
	return ig
}

// index buckets pts by cell, reusing ig's storage when it is large enough:
// a counting sort writes each point's x, y and r² to its slot in cell
// order, the point's id beside it, and the slot to the id's entry in the
// slot map. Cells are at least rmax wide, so a disk of radius rmax is
// covered by the 3×3 neighbourhood, and the cell count is capped at ~n so
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
	sameR := true
	for i := range pts {
		if pts[i].Radius > rmax {
			rmax = pts[i].Radius
		}
		sameR = sameR && pts[i].Radius == pts[0].Radius
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
	ig.torus, ig.sameR, ig.cols, ig.cellW = torus, sameR, cols, 1.0/float64(cols)

	// Counting sort into CSR-style buckets; each bucket's start offset is its
	// fill cursor, and one shift restores the offsets afterwards.
	nCells := cols * cols
	ig.cellOff = growOffsets(ig.cellOff, nCells+1)
	ig.cellPts = slices.Grow(ig.cellPts[:0], n)[:n]
	ig.cellIDs = growIDs(ig.cellIDs, n)
	ig.slot = growIDs(ig.slot, n)
	for i := range pts {
		ig.cellOff[ig.cellOf(pts[i].Y)*cols+ig.cellOf(pts[i].X)+1]++
	}
	for c := 0; c < nCells; c++ {
		ig.cellOff[c+1] += ig.cellOff[c]
	}
	for i := range pts {
		p := &pts[i]
		c := ig.cellOf(p.Y)*cols + ig.cellOf(p.X)
		s := ig.cellOff[c]
		ig.cellOff[c]++
		ig.cellPts[s] = cellPoint{p.X, p.Y, p.Radius * p.Radius}
		ig.cellIDs[s] = NodeID(i)
		ig.slot[i] = int32(s)
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
func (ig *ImplicitGeom) N() int { return len(ig.slot) }

// appendRow appends v's neighbours in one direction: out-rows keep
// candidates inside v's own radius, in-rows keep candidates whose radius
// reaches v. Every qualifying candidate is within rmax ≤ cellW of v, so the
// 3×3 cell neighbourhood covers both directions. Its cells are scanned as
// runs of consecutive slots: each row of the block is one run of adjacent
// cells, or two where the torus wraps the columns, and a torus of at most
// 3×3 cells is one run of every slot, so no cell is scanned twice.
//
// The candidate loop does not branch on the data: it reads each run's
// coordinates in order, stores every candidate's id at the row's end and
// advances the row length by whether the candidate is in range and is not
// v, so an id that fails is overwritten by the next. Candidates arrive in
// grid order, not id order: AppendOut and AppendIn sort them, and
// Scratch.FromPoints sorts whole graphs by counting instead. When count is
// true nothing is stored and only the row length is returned.
func (ig *ImplicitGeom) appendRow(v NodeID, dst []NodeID, in, count bool) ([]NodeID, int) {
	p := ig.cellPts[ig.slot[v]]
	cols, torus := ig.cols, ig.torus
	cx, cy := ig.cellOf(p.x), ig.cellOf(p.y)
	var runs [6][2]int
	nr := 0
	if torus && cols <= 3 {
		runs[0] = [2]int{0, len(ig.cellIDs)}
		nr = 1
	} else {
		for dy := -1; dy <= 1; dy++ {
			ny := cy + dy
			if torus {
				ny = (ny + cols) % cols
			} else if ny < 0 || ny >= cols {
				continue
			}
			row := ig.cellOff[ny*cols : ny*cols+cols+1]
			lo, hi := cx-1, cx+1
			if torus {
				if lo < 0 {
					runs[nr] = [2]int{row[cols-1], row[cols]}
					nr++
				}
				if hi >= cols {
					runs[nr] = [2]int{row[0], row[1]}
					nr++
				}
			}
			lo, hi = max(lo, 0), min(hi, cols-1)
			runs[nr] = [2]int{row[lo], row[hi+1]}
			nr++
		}
	}
	deg := 0
	for _, run := range runs[:nr] {
		cand := ig.cellPts[run[0]:run[1]]
		ids := ig.cellIDs[run[0]:run[1]]
		ids = ids[:len(cand)]
		var out []NodeID
		if !count {
			dst = slices.Grow(dst, len(cand))
			out = dst[len(dst) : len(dst)+len(cand)]
		}
		k := 0
		for i := range cand {
			q := &cand[i]
			dx := math.Abs(q.x - p.x)
			dy := math.Abs(q.y - p.y)
			if torus {
				dx = min(dx, 1-dx)
				dy = min(dy, 1-dy)
			}
			lim := p.r2
			if in {
				lim = q.r2
			}
			w := ids[i]
			if !count {
				out[k] = w
			}
			k += b2i(dx*dx+dy*dy <= lim) & b2i(w != v)
		}
		if !count {
			dst = dst[:len(dst)+k]
		}
		deg += k
	}
	return dst, deg
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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
