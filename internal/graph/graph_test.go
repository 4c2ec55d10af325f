package graph

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	g := b.Build()
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || !g.HasEdge(0, 2) {
		t.Fatal("missing edges")
	}
	if g.HasEdge(1, 0) || g.HasEdge(2, 0) {
		t.Fatal("phantom reverse edges")
	}
	if g.OutDegree(0) != 2 || g.InDegree(2) != 2 || g.InDegree(0) != 0 {
		t.Fatal("bad degrees")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderDedupe(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	g := b.Build()
	if g.M() != 1 {
		t.Fatalf("duplicates not collapsed: m=%d", g.M())
	}
}

func TestBuilderPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero nodes": func() { NewBuilder(0) },
		"self-loop":  func() { b := NewBuilder(2); b.AddEdge(1, 1) },
		"oob":        func() { b := NewBuilder(2); b.AddEdge(0, 2) },
		"negative":   func() { b := NewBuilder(2); b.AddEdge(-1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestInOutConsistency(t *testing.T) {
	g := FromEdges(4, [][2]NodeID{{0, 1}, {0, 2}, {1, 2}, {3, 2}, {2, 0}})
	in2 := g.In(2)
	if len(in2) != 3 || in2[0] != 0 || in2[1] != 1 || in2[2] != 3 {
		t.Fatalf("In(2) = %v", in2)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReverse(t *testing.T) {
	g := FromEdges(3, [][2]NodeID{{0, 1}, {1, 2}})
	r := g.Reverse()
	if !r.HasEdge(1, 0) || !r.HasEdge(2, 1) || r.HasEdge(0, 1) {
		t.Fatal("reverse wrong")
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	rr := r.Reverse()
	if !rr.HasEdge(0, 1) || !rr.HasEdge(1, 2) || rr.M() != g.M() {
		t.Fatal("double reverse not identity")
	}
}

func TestIsSymmetric(t *testing.T) {
	if !Path(5).IsSymmetric() {
		t.Fatal("path should be symmetric")
	}
	if FromEdges(2, [][2]NodeID{{0, 1}}).IsSymmetric() {
		t.Fatal("one-way edge reported symmetric")
	}
}

func TestCSRInvariantsProperty(t *testing.T) {
	r := rng.New(11)
	f := func(rawN uint8, rawM uint8) bool {
		n := int(rawN%20) + 2
		m := int(rawM % 64)
		b := NewBuilder(n)
		for i := 0; i < m; i++ {
			u := NodeID(r.Intn(n))
			v := NodeID(r.Intn(n))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		return b.Build().Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGNPDirectedEdgeCount(t *testing.T) {
	r := rng.New(1)
	n, p := 500, 0.02
	g := GNPDirected(n, p, r)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	want := p * float64(n) * float64(n-1)
	sd := math.Sqrt(want)
	if math.Abs(float64(g.M())-want) > 6*sd {
		t.Fatalf("edge count %d too far from %v", g.M(), want)
	}
}

func TestGNPDirectedExtremes(t *testing.T) {
	r := rng.New(2)
	if g := GNPDirected(10, 0, r); g.M() != 0 {
		t.Fatal("p=0 produced edges")
	}
	g := GNPDirected(6, 1, r)
	if g.M() != 30 {
		t.Fatalf("p=1 edge count %d, want 30", g.M())
	}
	if g1 := GNPDirected(1, 0.5, r); g1.M() != 0 {
		t.Fatal("n=1 produced edges")
	}
}

// TestGNPPanics checks that every G(n,p) generator rejects an edge
// probability outside [0, 1], NaN included, instead of building a graph.
func TestGNPPanics(t *testing.T) {
	for _, p := range []float64{-0.1, 1.5, math.NaN()} {
		for name, fn := range map[string]func(){
			"GNPDirected":         func() { GNPDirected(10, p, rng.New(1)) },
			"Scratch.GNPDirected": func() { NewScratch().GNPDirected(10, p, rng.New(1)) },
			"GNPSymmetric":        func() { GNPSymmetric(10, p, rng.New(1)) },
			"NewImplicitGNP":      func() { NewImplicitGNP(10, p, 1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s(p=%v) did not panic", name, p)
					}
				}()
				fn()
			}()
		}
	}
}

func TestGNPDirectedDeterministic(t *testing.T) {
	a := GNPDirected(100, 0.05, rng.New(7))
	b := GNPDirected(100, 0.05, rng.New(7))
	if a.M() != b.M() {
		t.Fatalf("same seed gave different graphs: %d vs %d edges", a.M(), b.M())
	}
	for v := 0; v < a.N(); v++ {
		av, bv := a.Out(NodeID(v)), b.Out(NodeID(v))
		if len(av) != len(bv) {
			t.Fatalf("node %d degree differs", v)
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("node %d adjacency differs", v)
			}
		}
	}
}

func TestGNPSymmetric(t *testing.T) {
	r := rng.New(3)
	g := GNPSymmetric(200, 0.05, r)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.IsSymmetric() {
		t.Fatal("GNPSymmetric not symmetric")
	}
	want := 2 * 0.05 * float64(200*199) / 2
	if math.Abs(float64(g.M())-want) > 6*math.Sqrt(want) {
		t.Fatalf("edge count %d too far from %v", g.M(), want)
	}
	full := GNPSymmetric(5, 1, r)
	if full.M() != 20 {
		t.Fatalf("p=1 symmetric m=%d, want 20", full.M())
	}
}

func TestStar(t *testing.T) {
	g := Star(4)
	if g.N() != 5 || g.M() != 8 {
		t.Fatalf("star n=%d m=%d", g.N(), g.M())
	}
	for i := 1; i <= 4; i++ {
		if !g.HasEdge(0, NodeID(i)) || !g.HasEdge(NodeID(i), 0) {
			t.Fatal("star edges missing")
		}
	}
	if g.OutDegree(0) != 4 || g.OutDegree(1) != 1 {
		t.Fatal("star degrees wrong")
	}
}

func TestPathAndCycle(t *testing.T) {
	p := Path(5)
	if p.M() != 8 {
		t.Fatalf("path m=%d", p.M())
	}
	d, strong := Diameter(p)
	if d != 4 || !strong {
		t.Fatalf("path diameter %d strong=%v", d, strong)
	}
	c := Cycle(6)
	if c.M() != 12 {
		t.Fatalf("cycle m=%d", c.M())
	}
	dc, strongC := Diameter(c)
	if dc != 3 || !strongC {
		t.Fatalf("cycle diameter %d", dc)
	}
}

func TestComplete(t *testing.T) {
	g := Complete(5)
	if g.M() != 20 {
		t.Fatalf("complete m=%d", g.M())
	}
	d, _ := Diameter(g)
	if d != 1 {
		t.Fatalf("complete diameter %d", d)
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid2D(4, 3)
	if g.N() != 12 {
		t.Fatalf("grid n=%d", g.N())
	}
	// Edges: horizontal 3*3=9, vertical 4*2=8, doubled for symmetry.
	if g.M() != 2*(9+8) {
		t.Fatalf("grid m=%d", g.M())
	}
	d, strong := Diameter(g)
	if d != 5 || !strong {
		t.Fatalf("grid diameter %d", d)
	}
	// Corner degree 2, interior degree 4.
	if g.OutDegree(0) != 2 || g.OutDegree(5) != 4 {
		t.Fatalf("grid degrees: corner=%d interior=%d", g.OutDegree(0), g.OutDegree(5))
	}
}

func TestCompleteBinaryTree(t *testing.T) {
	g := CompleteBinaryTree(7)
	if g.M() != 12 {
		t.Fatalf("tree m=%d", g.M())
	}
	d, strong := Diameter(g)
	if d != 4 || !strong {
		t.Fatalf("tree diameter %d", d)
	}
}

func TestObs43Network(t *testing.T) {
	net := NewObs43Network(8)
	g := net.G
	if g.N() != 25 {
		t.Fatalf("obs43 n=%d, want 25", g.N())
	}
	if len(net.Intermediate) != 16 || len(net.Destinations) != 8 {
		t.Fatal("obs43 component counts wrong")
	}
	for _, u := range net.Intermediate {
		if !g.HasEdge(net.Source, u) {
			t.Fatal("intermediate does not hear source")
		}
	}
	for i, d := range net.Destinations {
		if g.InDegree(d) != 2 {
			t.Fatalf("destination %d in-degree %d", i, g.InDegree(d))
		}
		u1, u2 := net.Intermediate[2*i], net.Intermediate[2*i+1]
		if !g.HasEdge(u1, d) || !g.HasEdge(u2, d) {
			t.Fatal("destination not wired to its pair")
		}
	}
	// Destinations are reachable in exactly 2 hops.
	dist := BFS(g, net.Source)
	for _, d := range net.Destinations {
		if dist[d] != 2 {
			t.Fatalf("destination at distance %d", dist[d])
		}
	}
}

func TestFig2Network(t *testing.T) {
	n, D := 16, 20 // L = 4 stars, path length 20-8 = 12
	net := NewFig2Network(n, D)
	g := net.G
	if net.L != 4 {
		t.Fatalf("L=%d", net.L)
	}
	wantNodes := (2 + 1) + (4 + 1) + (8 + 1) + (16 + 1) + (D - 2*4 + 1) + 1
	if g.N() != wantNodes {
		t.Fatalf("fig2 n=%d, want %d", g.N(), wantNodes)
	}
	// Star i has 2^i leaves all hearing centre i.
	for i := 0; i < net.L; i++ {
		if len(net.Leaves[i]) != 1<<uint(i+1) {
			t.Fatalf("star %d has %d leaves", i+1, len(net.Leaves[i]))
		}
		for _, lf := range net.Leaves[i] {
			if !g.HasEdge(net.Centers[i], lf) {
				t.Fatal("leaf does not hear its centre")
			}
		}
	}
	// Leaves of S_i feed centre c_{i+1}.
	for i := 0; i+1 < net.L; i++ {
		for _, lf := range net.Leaves[i] {
			if !g.HasEdge(lf, net.Centers[i+1]) {
				t.Fatal("leaf does not feed next centre")
			}
		}
	}
	// Path head hears all of the last star.
	head := net.Centers[net.L]
	if g.InDegree(head) != 1+len(net.Leaves[net.L-1]) {
		t.Fatalf("path head in-degree %d", g.InDegree(head))
	}
	// The eccentricity from the source equals D.
	ecc, reach := Eccentricity(g, net.Source)
	if reach != g.N() {
		t.Fatalf("only %d/%d reachable from source", reach, g.N())
	}
	if ecc != D {
		t.Fatalf("source eccentricity %d, want D=%d", ecc, D)
	}
	dist := BFS(g, net.Source)
	if last := net.Path[len(net.Path)-1]; dist[last] != D {
		t.Fatalf("last node at distance %d, want %d", dist[last], D)
	}
}

func TestFig2Panics(t *testing.T) {
	for name, fn := range map[string]func(){
		"not power of two": func() { NewFig2Network(10, 100) },
		"D too small":      func() { NewFig2Network(16, 7) },
		"n too small":      func() { NewFig2Network(1, 100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestLayeredRandom(t *testing.T) {
	r := rng.New(4)
	g := LayeredRandom([]int{1, 10, 10, 5}, 0.3, r)
	if g.N() != 26 {
		t.Fatalf("layered n=%d", g.N())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Forced edges guarantee every layer is reachable.
	if ReachableFrom(g, 0) != 26 {
		t.Fatal("layered graph not fully reachable from source")
	}
	layers := Layering(g, 0)
	if len(layers) != 4 {
		t.Fatalf("expected 4 BFS layers, got %d", len(layers))
	}
	if len(layers[1]) == 0 || len(layers[3]) == 0 {
		t.Fatal("empty BFS layer")
	}
}

func TestBFSKnown(t *testing.T) {
	g := FromEdges(5, [][2]NodeID{{0, 1}, {1, 2}, {2, 3}})
	dist := BFS(g, 0)
	want := []int{0, 1, 2, 3, -1}
	for i, d := range dist {
		if d != want[i] {
			t.Fatalf("dist %v, want %v", dist, want)
		}
	}
}

func TestBFSRespectsDirection(t *testing.T) {
	g := FromEdges(3, [][2]NodeID{{0, 1}, {2, 1}})
	dist := BFS(g, 0)
	if dist[2] != -1 {
		t.Fatal("BFS followed an edge backwards")
	}
}

func TestDiameterDisconnected(t *testing.T) {
	g := FromEdges(4, [][2]NodeID{{0, 1}, {2, 3}})
	d, strong := Diameter(g)
	if strong {
		t.Fatal("disconnected graph reported strongly connected")
	}
	if d != 1 {
		t.Fatalf("diameter of reachable pairs = %d", d)
	}
}

func TestDiameterSampled(t *testing.T) {
	r := rng.New(5)
	g := Path(50)
	exact, _ := Diameter(g)
	est := DiameterSampled(g, 10, r)
	if est > exact {
		t.Fatalf("sampled diameter %d exceeds exact %d", est, exact)
	}
	full := DiameterSampled(g, 100, r)
	if full != exact {
		t.Fatalf("sampled with k>=n should be exact: %d vs %d", full, exact)
	}
}

// perSourceDiameter is the reference for maxEccentricity: one Eccentricity
// call per source.
func perSourceDiameter(g *Digraph, sources []NodeID) (diam int, strongly bool) {
	strongly = true
	for _, src := range sources {
		ecc, reach := Eccentricity(g, src)
		diam = max(diam, ecc)
		if reach != g.N() {
			strongly = false
		}
	}
	return diam, strongly
}

// TestDiameterMatchesPerSourceBFS checks the 64-sources-at-a-time BFS behind
// Diameter and DiameterSampled against one Eccentricity call per source, at
// sizes on both sides of a 64-source batch, on paths, cycles, G(n,p) from
// empty to complete and disconnected GNPHetero digraphs — value and strong
// connectivity both — and on a sample that draws node 0 a second time.
func TestDiameterMatchesPerSourceBFS(t *testing.T) {
	r := rng.New(77)
	for _, n := range []int{1, 2, 63, 64, 65, 129} {
		graphs := map[string]*Digraph{"path": Path(n)}
		if n >= 3 {
			graphs["cycle"] = Cycle(n)
		}
		for _, p := range []float64{0, 1 / float64(n), 4 / float64(n), 0.5, 1} {
			p = min(p, 1)
			graphs[fmt.Sprintf("gnp p=%.3g", p)] = GNPDirected(n, p, r)
		}
		hetero, _ := NewScratch().GNPHetero(n, 0, min(2/float64(n), 1), r)
		graphs["gnp-hetero"] = hetero
		all := make([]NodeID, n)
		for v := range all {
			all[v] = NodeID(v)
		}
		for name, g := range graphs {
			d, strong := Diameter(g)
			wd, wstrong := perSourceDiameter(g, all)
			if d != wd || strong != wstrong {
				t.Fatalf("n=%d %s: Diameter = (%d, %v), per-source BFS (%d, %v)", n, name, d, strong, wd, wstrong)
			}
		}
		if _, strong := Diameter(hetero); n >= 63 && strong {
			t.Fatalf("n=%d: the sparse GNPHetero digraph is strongly connected, so the disconnected case is not covered", n)
		}
	}

	// DiameterSampled always adds node 0; find a seed whose sample draws it
	// again, across two batches of sources.
	g := GNPDirected(129, 0.03, r)
	const k = 100
	found := false
	for seed := uint64(0); seed < 200 && !found; seed++ {
		sample := rng.New(seed).SampleWithoutReplacement(g.N(), k)
		if !slices.Contains(sample, 0) {
			continue
		}
		found = true
		sources := []NodeID{0}
		for _, v := range sample {
			sources = append(sources, NodeID(v))
		}
		want, _ := perSourceDiameter(g, sources)
		if got := DiameterSampled(g, k, rng.New(seed)); got != want {
			t.Fatalf("seed %d: DiameterSampled = %d with node 0 sampled twice, per-source BFS %d", seed, got, want)
		}
	}
	if !found {
		t.Fatal("no seed sampled node 0")
	}
}

func TestDegrees(t *testing.T) {
	g := Star(3)
	s := Degrees(g)
	if s.MaxOut != 3 || s.MinOut != 1 || s.MaxIn != 3 || s.MinIn != 1 {
		t.Fatalf("star degree stats %+v", s)
	}
	if math.Abs(s.MeanOut-6.0/4.0) > 1e-12 {
		t.Fatalf("mean out %v", s.MeanOut)
	}
}

func TestConnectivity(t *testing.T) {
	if !IsStronglyConnected(Path(4)) {
		t.Fatal("symmetric path should be strongly connected")
	}
	oneWay := FromEdges(3, [][2]NodeID{{0, 1}, {1, 2}})
	if IsStronglyConnected(oneWay) {
		t.Fatal("one-way path is not strongly connected")
	}
	if !IsWeaklyConnected(oneWay) {
		t.Fatal("one-way path is weakly connected")
	}
	split := FromEdges(4, [][2]NodeID{{0, 1}, {2, 3}})
	if IsWeaklyConnected(split) {
		t.Fatal("two components reported weakly connected")
	}
}

func TestGNPConnectivityAboveThreshold(t *testing.T) {
	// p = 4 log n / n is comfortably above the connectivity threshold.
	r := rng.New(6)
	n := 400
	p := 4 * math.Log(float64(n)) / float64(n)
	for trial := 0; trial < 5; trial++ {
		g := GNPDirected(n, p, r.Split(uint64(trial)))
		if !IsStronglyConnected(g) {
			t.Fatalf("trial %d: G(n,p) above threshold not strongly connected", trial)
		}
	}
}

func TestRandomGeometricHomogeneous(t *testing.T) {
	r := rng.New(7)
	g, pts := NewScratch().RandomGeometric(300, 0.15, 0.15, r)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(pts) != 300 {
		t.Fatal("point count")
	}
	if !g.IsSymmetric() {
		t.Fatal("homogeneous RGG must be symmetric")
	}
	// Verify against brute force.
	brute := 0
	for i := range pts {
		for j := range pts {
			if i == j {
				continue
			}
			dx, dy := pts[i].X-pts[j].X, pts[i].Y-pts[j].Y
			if dx*dx+dy*dy <= 0.15*0.15 {
				brute++
			}
		}
	}
	if g.M() != brute {
		t.Fatalf("RGG edges %d, brute force %d", g.M(), brute)
	}
}

func TestRandomGeometricHeterogeneous(t *testing.T) {
	r := rng.New(8)
	g, pts := NewScratch().RandomGeometric(400, 0.05, 0.25, r)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	asym := 0
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Out(NodeID(u)) {
			if !g.HasEdge(v, NodeID(u)) {
				asym++
			}
		}
	}
	if asym == 0 {
		t.Fatal("heterogeneous RGG produced no asymmetric links")
	}
	// Every edge respects the sender's radius.
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Out(NodeID(u)) {
			dx, dy := pts[u].X-pts[v].X, pts[u].Y-pts[v].Y
			if dx*dx+dy*dy > pts[u].Radius*pts[u].Radius+1e-12 {
				t.Fatal("edge exceeds sender radius")
			}
		}
	}
}

func TestLayering(t *testing.T) {
	g := Path(4)
	layers := Layering(g, 0)
	if len(layers) != 4 {
		t.Fatalf("layers %v", layers)
	}
	for d, l := range layers {
		if len(l) != 1 || int(l[0]) != d {
			t.Fatalf("layer %d = %v", d, l)
		}
	}
}

func BenchmarkGNPDirectedGenerate(b *testing.B) {
	r := rng.New(1)
	n := 10000
	p := 2 * math.Log(float64(n)) / float64(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := GNPDirected(n, p, r)
		if g.N() != n {
			b.Fatal("bad graph")
		}
	}
}

func BenchmarkBFSLargeGNP(b *testing.B) {
	r := rng.New(2)
	n := 20000
	g := GNPDirected(n, 3*math.Log(float64(n))/float64(n), r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BFS(g, 0)
	}
}
