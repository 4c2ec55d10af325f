package graph

import (
	"math"

	"repro/internal/rng"
)

// BFS returns the directed-path distance (in hops) from src to every node;
// unreachable nodes get -1. Distances follow edge direction: dist[v] is the
// minimum number of transmissions needed to relay a message from src to v in
// a collision-free schedule.
func BFS(g *Digraph, src NodeID) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]NodeID, 0, 64)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u]
		for _, v := range g.Out(u) {
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Eccentricity returns the maximum finite BFS distance from src, together
// with the number of nodes reachable from src (including src itself).
func Eccentricity(g *Digraph, src NodeID) (ecc, reachable int) {
	dist := BFS(g, src)
	for _, d := range dist {
		if d < 0 {
			continue
		}
		reachable++
		if d > ecc {
			ecc = d
		}
	}
	return ecc, reachable
}

// Diameter returns the exact directed diameter: the maximum over all ordered
// pairs (u,v) with v reachable from u of dist(u,v). It runs a BFS from every
// node, 64 sources at a time (see maxEccentricity): O(n·(n+m)) at worst,
// like one BFS per node, and usually far less; use DiameterSampled for large
// graphs. The second return value is false if some ordered pair is
// unreachable (infinite diameter in the strongly-connected sense); the
// reported value then covers reachable pairs only.
func Diameter(g *Digraph) (int, bool) {
	sources := make([]NodeID, g.N())
	for v := range sources {
		sources[v] = NodeID(v)
	}
	return maxEccentricity(g, sources)
}

// DiameterSampled estimates the diameter by running BFS from k sources
// sampled uniformly without replacement (plus node 0, always included).
// It is a lower bound on the true diameter.
func DiameterSampled(g *Digraph, k int, r *rng.RNG) int {
	if k >= g.N() {
		d, _ := Diameter(g)
		return d
	}
	sources := []NodeID{0}
	for _, src := range r.SampleWithoutReplacement(g.N(), k) {
		sources = append(sources, NodeID(src))
	}
	diam, _ := maxEccentricity(g, sources)
	return diam
}

// maxEccentricity returns the largest Eccentricity over sources and whether
// every source reaches every node. It runs the BFS of up to 64 sources
// together: bit i of seen[v] means that source i of the batch has reached
// v, and bit i of cur[v] that it reached v at the current level. Only the
// nodes on the level's frontier list are visited, and a node joins a
// frontier at most once per distinct distance from the batch's sources, so
// a batch costs O(64·(n+m)) at worst — a path graph too — and never a scan
// of all n nodes per level. A repeated source is harmless: its bits travel
// together.
func maxEccentricity(g *Digraph, sources []NodeID) (diam int, strongly bool) {
	n := g.N()
	seen := make([]uint64, n)
	cur := make([]uint64, n)
	next := make([]uint64, n)
	var frontier, nextFrontier []NodeID
	strongly = true
	for len(sources) > 0 {
		batch := sources[:min(64, len(sources))]
		sources = sources[len(batch):]
		frontier = frontier[:0]
		for i, src := range batch {
			if cur[src] == 0 {
				frontier = append(frontier, src)
			}
			cur[src] |= 1 << i
			seen[src] |= 1 << i
		}
		// A node on the frontier of level d is at distance d from some
		// source, so the last non-empty level is the batch's largest
		// eccentricity.
		for d := 0; len(frontier) > 0; d++ {
			diam = max(diam, d)
			nextFrontier = nextFrontier[:0]
			for _, u := range frontier {
				reached := cur[u]
				cur[u] = 0
				for _, w := range g.Out(u) {
					if fresh := reached &^ seen[w]; fresh != 0 {
						if next[w] == 0 {
							nextFrontier = append(nextFrontier, w)
						}
						next[w] |= fresh
						seen[w] |= fresh
					}
				}
			}
			cur, next = next, cur
			frontier, nextFrontier = nextFrontier, frontier
		}
		all := ^uint64(0) >> (64 - len(batch))
		for v, s := range seen {
			if s != all {
				strongly = false
			}
			seen[v] = 0
		}
	}
	return diam, strongly
}

// DegreeStats summarises in- and out-degree distributions.
type DegreeStats struct {
	MinOut, MaxOut int
	MinIn, MaxIn   int
	MeanOut        float64 // equals MeanIn (every edge contributes to both)
}

// Degrees computes degree statistics in one pass.
func Degrees(g *Digraph) DegreeStats {
	s := DegreeStats{MinOut: math.MaxInt, MinIn: math.MaxInt}
	for v := 0; v < g.N(); v++ {
		od, id := g.OutDegree(NodeID(v)), g.InDegree(NodeID(v))
		if od < s.MinOut {
			s.MinOut = od
		}
		if od > s.MaxOut {
			s.MaxOut = od
		}
		if id < s.MinIn {
			s.MinIn = id
		}
		if id > s.MaxIn {
			s.MaxIn = id
		}
	}
	s.MeanOut = float64(g.M()) / float64(g.N())
	return s
}

// ReachableFrom returns the number of nodes reachable from src (including
// src). Broadcast from src can only ever inform this many nodes.
func ReachableFrom(g *Digraph, src NodeID) int {
	_, reach := Eccentricity(g, src)
	return reach
}

// AsymmetricEdges counts the directed edges whose reverse is absent — the
// one-way links produced by heterogeneous transmission radii (u hears v but
// not vice versa).
func AsymmetricEdges(g *Digraph) int {
	asym := 0
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Out(NodeID(u)) {
			if !g.HasEdge(v, NodeID(u)) {
				asym++
			}
		}
	}
	return asym
}

// IsStronglyConnected reports whether every node can reach every other node.
// Implemented as two BFS passes (from node 0 in G and in the transpose),
// which is equivalent to Kosaraju's check for a single component.
func IsStronglyConnected(g *Digraph) bool {
	if g.N() == 0 {
		return true
	}
	if ReachableFrom(g, 0) != g.N() {
		return false
	}
	return ReachableFrom(g.Reverse(), 0) == g.N()
}

// IsWeaklyConnected reports whether the underlying undirected graph is
// connected.
func IsWeaklyConnected(g *Digraph) bool {
	if g.N() == 0 {
		return true
	}
	seen := make([]bool, g.N())
	seen[0] = true
	stack := []NodeID{0}
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visit := func(v NodeID) {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
		for _, v := range g.Out(u) {
			visit(v)
		}
		for _, v := range g.In(u) {
			visit(v)
		}
	}
	return count == g.N()
}

// Layering partitions nodes by BFS distance from src: Layering[d] holds the
// nodes at distance d. Unreachable nodes are omitted. Used by the layer-based
// experiments for Theorem 4.2.
func Layering(g *Digraph, src NodeID) [][]NodeID {
	dist := BFS(g, src)
	maxD := 0
	for _, d := range dist {
		if d > maxD {
			maxD = d
		}
	}
	layers := make([][]NodeID, maxD+1)
	for v, d := range dist {
		if d >= 0 {
			layers[d] = append(layers[d], NodeID(v))
		}
	}
	return layers
}
