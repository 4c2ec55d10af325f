package graph

import (
	"math"
	"slices"

	"repro/internal/rng"
)

// Scratch reuses CSR adjacency storage across repeated graph generations —
// the experiment harness keeps one per worker so trial loops stop paying an
// allocation and a global edge sort per trial. The graph returned by a
// generation call aliases the Scratch's storage and is valid only until the
// next call.
type Scratch struct {
	g Digraph
	// spareTo and spareOff park the out-row storage while g serves its
	// in-rows as out-rows too (FromPoints with equal radii); begin hands
	// them back to g.
	spareTo  []NodeID
	spareOff []int

	// Geometric-generation storage (see geom.go): sampled points, clustered-
	// placement parent sites, and the cell-grid neighbour index.
	pts     []GeometricPoint
	parents []float64
	geo     ImplicitGeom

	// ps holds GNPHetero's per-node edge probabilities.
	ps []float64
}

// NewScratch returns an empty scratch; storage is sized on first use.
func NewScratch() *Scratch { return &Scratch{} }

func growOffsets(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func growIDs(s []NodeID, n int) []NodeID {
	if cap(s) < n {
		return make([]NodeID, n)
	}
	return s[:n]
}

// begin resets the scratch graph to n nodes with zeroed out-offsets and an
// empty out-adjacency, ready for a generator to fill the out-CSR row by row
// and call finishIn. It panics unless 1 <= n < 2^31, the counts int32 ids
// can name; the Builder and the implicit graphs check n when they are made,
// so only the G(n,p) generators can reach it with a bad n.
func (s *Scratch) begin(n int) *Digraph {
	if n < 1 {
		panic("graph: GNP needs n >= 1")
	}
	if n > 1<<31-1 {
		panic("graph: too many nodes for int32 ids")
	}
	g := &s.g
	if s.spareOff != nil {
		g.outTo, g.outOff = s.spareTo, s.spareOff
		s.spareTo, s.spareOff = nil, nil
	}
	g.n = n
	g.outOff = growOffsets(g.outOff, n+1)
	g.outTo = g.outTo[:0]
	return g
}

// fromRows assembles the out-CSR by concatenating g's rows, which the
// Implicit contract delivers sorted, and derives the in-adjacency.
func (s *Scratch) fromRows(g Implicit) *Digraph {
	n := g.N()
	d := s.begin(n)
	for u := 0; u < n; u++ {
		d.outTo = g.AppendOut(NodeID(u), d.outTo)
		d.outOff[u+1] = len(d.outTo)
	}
	s.finishIn()
	return d
}

// GNPDirected is graph.GNPDirected writing into the scratch's reusable
// storage. It consumes the RNG identically to the package-level function
// and produces an identical graph, but builds the CSR form directly. The
// skip stream runs over the linear index of the ordered non-diagonal
// pairs, where row u's n-1 positions are its targets below u and then
// those above it, so each row is two rng.AppendSkips calls on the carried
// gap: the targets arrive sorted, with no diagonal test, no index
// arithmetic and no edge sort. The edge array is reserved up front for
// n(n-1)p edges plus six standard deviations, so the rows are written once
// instead of through the regrowth copies of repeated doubling. The
// in-adjacency follows from one counting pass.
func (s *Scratch) GNPDirected(n int, p float64, r *rng.RNG) *Digraph {
	if !(p >= 0 && p <= 1) {
		panic("graph: GNP needs p in [0,1]")
	}
	g := s.begin(n)
	if p > 0 && n > 1 {
		pairs := float64(n) * float64(n-1)
		mean := pairs * p
		g.outTo = slices.Grow(g.outTo, int(min(mean+6*math.Sqrt(mean*(1-p))+64, pairs)))
		gap := r.Geometric(p)
		for u := 0; u < n; u++ {
			g.outTo, gap = r.AppendSkips(g.outTo, 0, gap, u, p)
			g.outTo, gap = r.AppendSkips(g.outTo, NodeID(u+1), gap, n-1-u, p)
			g.outOff[u+1] = len(g.outTo)
		}
	}
	s.finishIn()
	return g
}

// GNPHetero samples a heterogeneous-range random digraph into the
// scratch's reusable storage: node u draws its own edge probability p_u
// uniformly from [pmin, pmax], then reaches each other node independently
// with probability p_u. This realises §1.2's "we allow different
// communication ranges for different nodes" in the Erdős–Rényi setting:
// strong radios (large p_u) are heard widely but hear only whoever reaches
// them, so links are asymmetric and out-degrees vary by a factor pmax/pmin.
// It returns the digraph and the per-node probabilities, both aliasing
// scratch storage until the next generation call. Each row is its own skip
// stream at p_u, drawn as GNPDirected's rows are: two rng.AppendSkips
// calls, the targets below u and above it, so rows go straight into the
// CSR form sorted.
func (s *Scratch) GNPHetero(n int, pmin, pmax float64, r *rng.RNG) (*Digraph, []float64) {
	if !(0 <= pmin && pmin <= pmax && pmax <= 1) {
		panic("graph: GNPHetero needs 0 <= pmin <= pmax <= 1")
	}
	g := s.begin(n)
	s.ps = slices.Grow(s.ps[:0], n)[:n]
	for i := range s.ps {
		s.ps[i] = pmin + (pmax-pmin)*r.Float64()
	}
	for u, p := range s.ps {
		if p > 0 {
			gap := r.Geometric(p)
			g.outTo, gap = r.AppendSkips(g.outTo, 0, gap, u, p)
			g.outTo, _ = r.AppendSkips(g.outTo, NodeID(u+1), gap, n-1-u, p)
		}
		g.outOff[u+1] = len(g.outTo)
	}
	s.finishIn()
	return g, s.ps
}

// finishIn derives the in-adjacency of s.g from its completed out-adjacency
// by counting sort — the one transpose every CSR construction goes through:
// count in-degrees, prefix-sum, then fill by walking the out-lists in u
// order, which leaves every in-list sorted. The fill advances each inOff[v]
// as its cursor, so afterwards inOff[v] holds the start of row v+1 and one
// shift restores the offsets.
func (s *Scratch) finishIn() {
	g := &s.g
	n := g.n
	g.inOff = growOffsets(g.inOff, n+1)
	g.inTo = growIDs(g.inTo, len(g.outTo))
	for _, v := range g.outTo {
		g.inOff[v+1]++
	}
	for i := 0; i < n; i++ {
		g.inOff[i+1] += g.inOff[i]
	}
	for u := 0; u < n; u++ {
		for _, v := range g.outTo[g.outOff[u]:g.outOff[u+1]] {
			g.inTo[g.inOff[v]] = NodeID(u)
			g.inOff[v]++
		}
	}
	copy(g.inOff[1:], g.inOff[:n])
	g.inOff[0] = 0
}

// sortOut rewrites every out-row of s.g in ascending order from the
// in-rows, which finishIn leaves sorted: walking v in ascending order and
// putting v into the out-row of each node it hears fills every out-row in
// order. Each outOff[u] serves as row u's fill cursor, so afterwards it
// holds the start of row u+1 and one shift restores the offsets, as in
// finishIn.
func (s *Scratch) sortOut() {
	g := &s.g
	n := g.n
	for v := 0; v < n; v++ {
		for _, u := range g.inTo[g.inOff[v]:g.inOff[v+1]] {
			g.outTo[g.outOff[u]] = NodeID(v)
			g.outOff[u]++
		}
	}
	copy(g.outOff[1:], g.outOff[:n])
	g.outOff[0] = 0
}
