package graph

import (
	"math"
	"slices"

	"repro/internal/rng"
)

// GNPDirected samples the directed Erdős–Rényi digraph G(n,p): each ordered
// pair (u,v), u ≠ v, is an edge independently with probability p. This is the
// random-network model of §2–3 of the paper. Generation uses geometric
// skipping (Batagelj–Brandes), so it runs in O(n + m) expected time rather
// than O(n²); the skip order emits edges already CSR-sorted, so no edge
// sort happens either (see Scratch.GNPDirected, which trial loops use to
// also reuse the adjacency storage).
func GNPDirected(n int, p float64, r *rng.RNG) *Digraph {
	return NewScratch().GNPDirected(n, p, r)
}

// GNPSymmetric samples an undirected G(n,p) and orients every edge both ways,
// modelling radios with equal communication ranges. Geometric skipping walks
// the linear index over the pairs u < v in increasing order, so the pair's
// row u and the row's first index carry over from one edge to the next
// instead of being found by walking the rows from 0 for every edge.
func GNPSymmetric(n int, p float64, r *rng.RNG) *Digraph {
	if !(p >= 0 && p <= 1) {
		panic("graph: GNP needs p in [0,1]")
	}
	b := NewBuilder(n)
	if p == 0 || n == 1 {
		return b.Build()
	}
	// Row u holds the n-1-u pairs {u<v} at indices [start, start+n-1-u).
	// Geometric(1) is 0 and draws nothing, so p = 1 lists every pair.
	total := uint64(n) * uint64(n-1) / 2
	u, start := uint64(0), uint64(0)
	for idx := uint64(r.Geometric(p)); idx < total; idx += 1 + uint64(r.Geometric(p)) {
		for idx-start >= uint64(n-1)-u {
			start += uint64(n-1) - u
			u++
		}
		b.AddBoth(NodeID(u), NodeID(u+1+idx-start))
	}
	return b.Build()
}

// Star returns a directed star with node 0 as the centre and edges in both
// directions between the centre and each of the k leaves (n = k+1 nodes).
func Star(k int) *Digraph {
	b := NewBuilder(k + 1)
	for i := 1; i <= k; i++ {
		b.AddBoth(0, NodeID(i))
	}
	return b.Build()
}

// Path returns a symmetric path v_0 — v_1 — ... — v_{n-1} with diameter n-1.
func Path(n int) *Digraph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddBoth(NodeID(i), NodeID(i+1))
	}
	return b.Build()
}

// Cycle returns a symmetric cycle on n >= 3 nodes.
func Cycle(n int) *Digraph {
	if n < 3 {
		panic("graph: cycle needs n >= 3")
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddBoth(NodeID(i), NodeID((i+1)%n))
	}
	return b.Build()
}

// Complete returns the complete symmetric digraph on n nodes.
func Complete(n int) *Digraph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddBoth(NodeID(u), NodeID(v))
		}
	}
	return b.Build()
}

// Grid2D returns the w×h symmetric grid (4-neighbourhood). Node (x,y) has id
// y*w + x. Its diameter is (w-1)+(h-1), making it the canonical "known
// diameter D" topology for Algorithm 3 experiments.
func Grid2D(w, h int) *Digraph {
	if w < 1 || h < 1 {
		panic("graph: grid needs positive dimensions")
	}
	b := NewBuilder(w * h)
	id := func(x, y int) NodeID { return NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddBoth(id(x, y), id(x+1, y))
			}
			if y+1 < h {
				b.AddBoth(id(x, y), id(x, y+1))
			}
		}
	}
	return b.Build()
}

// CompleteBinaryTree returns a symmetric complete binary tree with n nodes,
// rooted at node 0 (children of i are 2i+1 and 2i+2).
func CompleteBinaryTree(n int) *Digraph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		if l := 2*i + 1; l < n {
			b.AddBoth(NodeID(i), NodeID(l))
		}
		if r := 2*i + 2; r < n {
			b.AddBoth(NodeID(i), NodeID(r))
		}
	}
	return b.Build()
}

// Obs43Network is the lower-bound construction of Observation 4.3: a source
// s, 2n intermediate nodes u_1..u_2n all hearing s, and n destinations where
// destination d_i hears exactly u_{2i-1} and u_{2i}. Any oblivious algorithm
// needs ≈ n·log n / 2 transmissions in total to inform all destinations with
// probability 1 − 1/n, because each d_i is only informed in a round where
// exactly one of its two intermediates transmits.
type Obs43Network struct {
	G            *Digraph
	Source       NodeID
	Intermediate []NodeID // 2n nodes
	Destinations []NodeID // n nodes
}

// NewObs43Network builds the Observation 4.3 network for parameter n
// (3n+1 nodes in total).
func NewObs43Network(n int) *Obs43Network {
	if n < 1 {
		panic("graph: obs43 needs n >= 1")
	}
	total := 3*n + 1
	b := NewBuilder(total)
	net := &Obs43Network{Source: 0}
	// ids: 0 = s; 1..2n = intermediates; 2n+1..3n = destinations.
	for j := 1; j <= 2*n; j++ {
		b.AddEdge(0, NodeID(j)) // intermediates hear the source
		net.Intermediate = append(net.Intermediate, NodeID(j))
	}
	for i := 1; i <= n; i++ {
		d := NodeID(2*n + i)
		b.AddEdge(NodeID(2*i-1), d)
		b.AddEdge(NodeID(2*i), d)
		net.Destinations = append(net.Destinations, d)
	}
	net.G = b.Build()
	return net
}

// Fig2Network is the layered lower-bound construction of Theorem 4.4
// (Fig. 2 of the paper): subgraph G1 is a chain of stars S_1..S_L
// (L = log₂ n) where star S_i has centre c_i and 2^i leaves; the centre
// informs its leaves, every leaf of S_i has an edge to the centre c_{i+1};
// subgraph G2 is a directed path of length D − 2·log n appended after S_L
// (every node of S_L hears-from ... i.e. has an edge to the path head).
// The broadcast originates at c_1.
type Fig2Network struct {
	G       *Digraph
	Source  NodeID
	Centers []NodeID   // c_1 .. c_L, then the path head c_{L+1}
	Leaves  [][]NodeID // Leaves[i] = leaf ids of star S_{i+1}
	Path    []NodeID   // v_0 .. v_L2 (v_0 is the path head, also Centers[L])
	L       int        // number of stars = log₂ n
	D       int        // requested diameter
}

// NewFig2Network builds the Theorem 4.4 network with star parameter n
// (a power of two; L = log₂ n stars) and diameter D: the eccentricity of the
// source c_1 is exactly D. The star section spans 2L−1 hops (centre → leaves
// → next centre, with the last star feeding the path head directly), so the
// path contributes the remaining D − 2L + 1 edges. The paper requires
// D > 4 log n so the path section dominates; we enforce D ≥ 2·log n.
// Total node count is Σ(2^i + 1) + (D − 2 log n) + 2 ≤ 2n + D + 2.
func NewFig2Network(n, D int) *Fig2Network {
	L := exactLog2(n)
	if D < 2*L {
		panic("graph: fig2 needs D >= 2*log2(n)")
	}
	pathLen := D - 2*L + 1 // number of path edges after the stars
	total := 0
	for i := 1; i <= L; i++ {
		total += 1 + (1 << uint(i)) // centre + leaves
	}
	total += pathLen + 1 // path nodes v_0..v_pathLen
	b := NewBuilder(total)
	net := &Fig2Network{Source: 0, L: L, D: D}
	next := NodeID(0)
	var prevLeaves []NodeID
	for i := 1; i <= L; i++ {
		c := next
		next++
		net.Centers = append(net.Centers, c)
		// Leaves of the previous star inform this centre.
		for _, lf := range prevLeaves {
			b.AddEdge(lf, c)
		}
		leaves := make([]NodeID, 0, 1<<uint(i))
		for j := 0; j < 1<<uint(i); j++ {
			lf := next
			next++
			b.AddEdge(c, lf) // leaves hear their centre
			leaves = append(leaves, lf)
		}
		net.Leaves = append(net.Leaves, leaves)
		prevLeaves = leaves
	}
	// Path head hears every node of the last star (centre + leaves).
	head := next
	next++
	net.Centers = append(net.Centers, head)
	net.Path = append(net.Path, head)
	b.AddEdge(net.Centers[L-1], head)
	for _, lf := range prevLeaves {
		b.AddEdge(lf, head)
	}
	prev := head
	for k := 0; k < pathLen; k++ {
		v := next
		next++
		b.AddEdge(prev, v)
		net.Path = append(net.Path, v)
		prev = v
	}
	net.G = b.Build()
	return net
}

func exactLog2(n int) int {
	if n < 2 {
		panic("graph: need n >= 2")
	}
	L := 0
	for v := n; v > 1; v >>= 1 {
		L++
	}
	if 1<<uint(L) != n {
		panic("graph: n must be a power of two")
	}
	return L
}

// LayeredRandom returns a layered digraph with the given layer sizes, where
// every node of layer i has an edge to each node of layer i+1 independently
// with probability p. To keep every node reachable from layer 0, each node
// of layer i+1 additionally receives a forced edge from one uniformly chosen
// node of layer i. Used as an adversarial "shallow network" workload for
// Algorithm 3.
func LayeredRandom(sizes []int, p float64, r *rng.RNG) *Digraph {
	if len(sizes) == 0 {
		panic("graph: layered needs at least one layer")
	}
	total := 0
	for _, s := range sizes {
		if s < 1 {
			panic("graph: layer sizes must be positive")
		}
		total += s
	}
	b := NewBuilder(total)
	start := 0
	for li := 0; li+1 < len(sizes); li++ {
		nextStart := start + sizes[li]
		for u := start; u < start+sizes[li]; u++ {
			for v := nextStart; v < nextStart+sizes[li+1]; v++ {
				if r.Bernoulli(p) {
					b.AddEdge(NodeID(u), NodeID(v))
				}
			}
		}
		for v := nextStart; v < nextStart+sizes[li+1]; v++ {
			b.AddEdge(NodeID(start+r.Intn(sizes[li])), NodeID(v))
		}
		start = nextStart
	}
	return b.Build()
}

// GeometricPoint is a node position in the unit square together with its
// transmission radius.
type GeometricPoint struct {
	X, Y   float64
	Radius float64
}

// RandomGeometric samples n points uniformly in the unit square into the
// scratch's reusable storage and connects u → v iff dist(u,v) ≤ radius(u)
// — i.e. v hears u when v lies inside u's transmission range. With a
// constant radius the graph is symmetric; with heterogeneous radii (rmin <
// rmax) links become asymmetric, reproducing the paper's motivation that
// one device may hear another but not vice versa. Each point draws x, y
// and then, when rmin < rmax, its radius uniform in [rmin, rmax]. Returns
// the digraph and the sampled points, both aliasing scratch storage until
// the next generation call. Runs in O(n + m) expected time through
// FromPoints' cell grid.
func (s *Scratch) RandomGeometric(n int, rmin, rmax float64, r *rng.RNG) (*Digraph, []GeometricPoint) {
	if n < 1 {
		panic("graph: geometric needs n >= 1")
	}
	if rmin <= 0 || rmax < rmin || rmax > math.Sqrt2 {
		panic("graph: geometric needs 0 < rmin <= rmax <= sqrt(2)")
	}
	s.pts = slices.Grow(s.pts[:0], n)[:n]
	for i := range s.pts {
		s.pts[i] = GeometricPoint{X: r.Float64(), Y: r.Float64(), Radius: rmin}
		if rmax > rmin {
			s.pts[i].Radius = rmin + (rmax-rmin)*r.Float64()
		}
	}
	return s.FromPoints(s.pts, false), s.pts
}
