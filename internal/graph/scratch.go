package graph

import "repro/internal/rng"

// Scratch reuses CSR adjacency storage across repeated graph generations —
// the experiment harness keeps one per worker so trial loops stop paying an
// allocation and a global edge sort per trial. The graph returned by a
// generation call aliases the Scratch's storage and is valid only until the
// next call.
type Scratch struct {
	g Digraph

	// Geometric-generation storage (see geom.go): sampled points, clustered-
	// placement parent sites, and the cell-grid neighbour index.
	pts     []GeometricPoint
	parents []float64
	geo     ImplicitGeom
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
// and produces an identical graph, but builds the CSR form directly:
// geometric skipping emits edges already sorted by (u, v), so each row is
// appended in place as the skip crosses into it, with no edge-list sort and
// no per-edge division, and the in-adjacency follows from one counting
// pass.
func (s *Scratch) GNPDirected(n int, p float64, r *rng.RNG) *Digraph {
	if !(p >= 0 && p <= 1) {
		panic("graph: GNP needs p in [0,1]")
	}
	g := s.begin(n)
	if p > 0 && n > 1 {
		// Geometric skipping over the linear index of ordered non-diagonal
		// pairs; indices arrive in increasing order, i.e. sorted by (u, v).
		// Row u holds indices [start, start+n-1) with start = u·(n-1); the
		// loop that closes each row also advances start, so no edge divides.
		total, row := uint64(n)*uint64(n-1), uint64(n-1)
		u, start := 0, uint64(0)
		idx := uint64(r.Geometric(p))
		for idx < total {
			for idx-start >= row {
				u++
				start += row
				g.outOff[u] = len(g.outTo)
			}
			v := NodeID(idx - start)
			if v >= NodeID(u) {
				v++
			}
			g.outTo = append(g.outTo, v)
			idx += 1 + uint64(r.Geometric(p))
		}
		for u < n {
			u++
			g.outOff[u] = len(g.outTo)
		}
	}

	s.finishIn()
	return g
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
