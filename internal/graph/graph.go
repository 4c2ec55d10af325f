// Package graph provides the directed-graph substrate for the radio-network
// simulator: a compact CSR (compressed sparse row) digraph, deterministic
// generators for every topology used in the paper's analysis (random digraphs
// G(n,p), stars, paths, grids, the two lower-bound constructions, random
// geometric graphs), and structural metrics (BFS, diameter, degrees,
// connectivity).
//
// Edge direction convention: an edge u → v means "v can hear u", i.e. when u
// transmits, v is one of the potential receivers. This matches the paper's
// model where (u,v) ∈ E means u is in the communication range of v.
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// NodeID indexes a node. Graphs are limited to 2^31-1 nodes, which keeps the
// adjacency arrays at 4 bytes per endpoint.
type NodeID = int32

// Digraph is an immutable directed graph in CSR form with both out- and
// in-adjacency, so the simulator can iterate receivers of a transmitter
// (out-edges) and analysers can iterate potential interferers (in-edges).
// Adjacency lists are sorted by target id.
type Digraph struct {
	n      int
	outOff []int
	outTo  []NodeID
	inOff  []int
	inTo   []NodeID
}

// N returns the number of nodes.
func (g *Digraph) N() int { return g.n }

// M returns the number of directed edges.
func (g *Digraph) M() int { return len(g.outTo) }

// Out returns the out-neighbours of v (the nodes that hear v). The returned
// slice aliases internal storage and must not be modified.
func (g *Digraph) Out(v NodeID) []NodeID { return g.outTo[g.outOff[v]:g.outOff[v+1]] }

// In returns the in-neighbours of v (the nodes v can hear). The returned
// slice aliases internal storage and must not be modified.
func (g *Digraph) In(v NodeID) []NodeID { return g.inTo[g.inOff[v]:g.inOff[v+1]] }

// OutDegree returns the number of nodes that hear v.
func (g *Digraph) OutDegree(v NodeID) int { return g.outOff[v+1] - g.outOff[v] }

// InDegree returns the number of nodes v hears.
func (g *Digraph) InDegree(v NodeID) int { return g.inOff[v+1] - g.inOff[v] }

// HasEdge reports whether the edge u → v exists (binary search on the sorted
// out-adjacency of u).
func (g *Digraph) HasEdge(u, v NodeID) bool {
	adj := g.Out(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// Builder accumulates edges and produces an immutable Digraph. Duplicate
// edges are collapsed at Build time; self-loops are rejected by AddEdge
// (a radio cannot inform itself).
type Builder struct {
	n     int
	edges []uint64 // u<<32 | v, so integer order is (u, v) order
}

// NewBuilder returns a Builder for a graph with n nodes. It panics if n < 1
// or n exceeds the NodeID range.
func NewBuilder(n int) *Builder {
	if n < 1 {
		panic("graph: builder needs n >= 1")
	}
	if n > 1<<31-1 {
		panic("graph: too many nodes for int32 ids")
	}
	return &Builder{n: n}
}

// AddEdge records the directed edge u → v ("v hears u"). It panics on
// out-of-range endpoints or self-loops.
func (b *Builder) AddEdge(u, v NodeID) {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", u, v, b.n))
	}
	if u == v {
		panic("graph: self-loop")
	}
	b.edges = append(b.edges, uint64(u)<<32|uint64(v))
}

// AddBoth records u → v and v → u (a symmetric radio link).
func (b *Builder) AddBoth(u, v NodeID) {
	b.AddEdge(u, v)
	b.AddEdge(v, u)
}

// Build produces the immutable CSR digraph. Duplicate edges are collapsed.
// Sorting the edges by (u, v) lays out the out-CSR row by row; the
// in-adjacency follows from the shared counting transpose.
func (b *Builder) Build() *Digraph {
	slices.Sort(b.edges)
	b.edges = slices.Compact(b.edges)
	s := &Scratch{}
	g := s.begin(b.n)
	g.outTo = make([]NodeID, len(b.edges))
	for i, e := range b.edges {
		g.outOff[e>>32+1]++
		g.outTo[i] = NodeID(uint32(e))
	}
	for u := 0; u < b.n; u++ {
		g.outOff[u+1] += g.outOff[u]
	}
	s.finishIn()
	return g
}

// FromEdges builds a digraph directly from an edge list.
func FromEdges(n int, edges [][2]NodeID) *Digraph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// Validate checks the CSR invariants. It is used by property tests and
// returns a descriptive error on the first violation found.
func (g *Digraph) Validate() error {
	if len(g.outOff) != g.n+1 || len(g.inOff) != g.n+1 {
		return errors.New("graph: offset array length mismatch")
	}
	if g.outOff[0] != 0 || g.inOff[0] != 0 {
		return errors.New("graph: offsets must start at 0")
	}
	if g.outOff[g.n] != len(g.outTo) || g.inOff[g.n] != len(g.inTo) {
		return errors.New("graph: offsets must end at edge count")
	}
	if len(g.outTo) != len(g.inTo) {
		return errors.New("graph: out/in edge count mismatch")
	}
	inCount := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		if g.outOff[v] > g.outOff[v+1] || g.inOff[v] > g.inOff[v+1] {
			return fmt.Errorf("graph: non-monotone offsets at node %d", v)
		}
		adj := g.Out(NodeID(v))
		for i, w := range adj {
			if w < 0 || int(w) >= g.n {
				return fmt.Errorf("graph: out edge target %d out of range", w)
			}
			if int(w) == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if i > 0 && adj[i-1] >= w {
				return fmt.Errorf("graph: out adjacency of %d not strictly sorted", v)
			}
			inCount[w]++
		}
	}
	for v := 0; v < g.n; v++ {
		if got := g.InDegree(NodeID(v)); got != inCount[v] {
			return fmt.Errorf("graph: in-degree of %d is %d, want %d", v, got, inCount[v])
		}
		adj := g.In(NodeID(v))
		for i, w := range adj {
			if i > 0 && adj[i-1] >= w {
				return fmt.Errorf("graph: in adjacency of %d not strictly sorted", v)
			}
			if !g.HasEdge(w, NodeID(v)) {
				return fmt.Errorf("graph: in edge %d->%d missing from out lists", w, v)
			}
		}
	}
	return nil
}

// Reverse returns the transpose graph (every edge u → v becomes v → u).
func (g *Digraph) Reverse() *Digraph {
	r := &Digraph{
		n:      g.n,
		outOff: append([]int(nil), g.inOff...),
		outTo:  append([]NodeID(nil), g.inTo...),
		inOff:  append([]int(nil), g.outOff...),
		inTo:   append([]NodeID(nil), g.outTo...),
	}
	return r
}

// IsSymmetric reports whether every edge has its reverse (a bidirectional
// radio network).
func (g *Digraph) IsSymmetric() bool {
	for v := 0; v < g.n; v++ {
		for _, w := range g.Out(NodeID(v)) {
			if !g.HasEdge(w, NodeID(v)) {
				return false
			}
		}
	}
	return true
}
