package graph

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 {
		t.Fatalf("n=%d", g.N())
	}
	if g.M() != 16*4 {
		t.Fatalf("m=%d, want 64", g.M())
	}
	for v := 0; v < g.N(); v++ {
		if g.OutDegree(NodeID(v)) != 4 {
			t.Fatalf("node %d degree %d", v, g.OutDegree(NodeID(v)))
		}
	}
	d, strong := Diameter(g)
	if d != 4 || !strong {
		t.Fatalf("hypercube diameter %d strong=%v", d, strong)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHypercubePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Hypercube(0)
}

func TestTorus2D(t *testing.T) {
	g := Torus2D(5, 4)
	if g.N() != 20 {
		t.Fatalf("n=%d", g.N())
	}
	for v := 0; v < g.N(); v++ {
		if g.OutDegree(NodeID(v)) != 4 {
			t.Fatalf("torus node %d degree %d", v, g.OutDegree(NodeID(v)))
		}
	}
	d, strong := Diameter(g)
	if d != 5/2+4/2 || !strong {
		t.Fatalf("torus diameter %d", d)
	}
}

func TestTorusPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Torus2D(2, 5)
}

func TestRandomRegularOut(t *testing.T) {
	r := rng.New(1)
	g := RandomRegularOut(200, 8, r)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if g.OutDegree(NodeID(v)) != 8 {
			t.Fatalf("node %d out-degree %d, want 8", v, g.OutDegree(NodeID(v)))
		}
	}
	// In-degrees should average 8 with Poisson-like spread.
	s := Degrees(g)
	if s.MaxIn > 8*4 || s.MeanOut != 8 {
		t.Fatalf("degree stats %+v", s)
	}
}

func TestRandomRegularOutEdges(t *testing.T) {
	r := rng.New(2)
	if g := RandomRegularOut(5, 4, r); g.M() != 20 {
		t.Fatalf("full regular m=%d", g.M())
	}
	if g := RandomRegularOut(5, 0, r); g.M() != 0 {
		t.Fatalf("zero regular m=%d", g.M())
	}
}

func TestRandomRegularOutPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	RandomRegularOut(5, 5, rng.New(1))
}

func TestBarbell(t *testing.T) {
	k, bridge := 5, 4
	g := BarbellNetwork(k, bridge)
	if g.N() != 2*k+bridge-1 {
		t.Fatalf("n=%d", g.N())
	}
	if !IsStronglyConnected(g) {
		t.Fatal("barbell should be strongly connected")
	}
	d, _ := Diameter(g)
	// End of clique A to end of clique B: 1 + bridge + 1 hops.
	if d != bridge+2 {
		t.Fatalf("barbell diameter %d, want %d", d, bridge+2)
	}
}

func TestCaterpillar(t *testing.T) {
	g := Caterpillar(4, 3)
	if g.N() != 16 {
		t.Fatalf("n=%d", g.N())
	}
	if !IsStronglyConnected(g) {
		t.Fatal("caterpillar connected")
	}
	// Spine interior nodes: 2 spine edges + 3 legs = degree 5.
	if g.OutDegree(1) != 5 {
		t.Fatalf("spine degree %d", g.OutDegree(1))
	}
	d, _ := Diameter(g)
	// Leaf of spine 0 to leaf of spine 3: 1 + 3 + 1.
	if d != 5 {
		t.Fatalf("caterpillar diameter %d", d)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	r := rng.New(3)
	orig := GNPDirected(100, 0.05, r)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != orig.N() || back.M() != orig.M() {
		t.Fatalf("round trip size: %d/%d vs %d/%d", back.N(), back.M(), orig.N(), orig.M())
	}
	for v := 0; v < orig.N(); v++ {
		a, b := orig.Out(NodeID(v)), back.Out(NodeID(v))
		if len(a) != len(b) {
			t.Fatalf("node %d degree mismatch", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d adjacency mismatch", v)
			}
		}
	}
}

func TestEdgeListRoundTripProperty(t *testing.T) {
	r := rng.New(4)
	f := func(rawN, rawM uint8) bool {
		n := int(rawN%30) + 2
		b := NewBuilder(n)
		for i := 0; i < int(rawM); i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				b.AddEdge(NodeID(u), NodeID(v))
			}
		}
		g := b.Build()
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			return false
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			return false
		}
		return back.N() == g.N() && back.M() == g.M() && back.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadEdgeListHeaderless(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n1 2\n# a comment\n2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("headerless parse: n=%d m=%d", g.N(), g.M())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"bad tokens":     "0 1 2\n",
		"non-numeric":    "a b\n",
		"negative":       "-1 2\n",
		"self loop":      "3 3\n",
		"exceeds header": "# nodes 2 edges 1\n0 5\n",
		"empty":          "",
		"bad header n":   "# nodes 0 edges 0\n",
		// Ids and node counts past the int32 id range.
		"id too large":       "0 2147483648\n",
		"id too large for n": "0 2147483647\n",
		"header too large":   "# nodes 2147483648 edges 1\n0 1\n",
	}
	for name, in := range cases {
		_, err := ReadEdgeList(strings.NewReader(in))
		if err == nil {
			t.Fatalf("%s: expected error", name)
		}
		if strings.Contains(name, "large") && !strings.Contains(err.Error(), "line 1:") {
			t.Fatalf("%s: error %q does not name the offending line", name, err)
		}
	}
}

func TestGNPHetero(t *testing.T) {
	r := rng.New(10)
	n := 600
	g, ps := NewScratch().GNPHetero(n, 0.01, 0.2, r)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ps) != n {
		t.Fatal("probability vector length")
	}
	// Each node's out-degree should track its own p: compare the top and
	// bottom probability quartiles' mean degrees.
	var lo, hi float64
	var nLo, nHi int
	for v := 0; v < n; v++ {
		switch {
		case ps[v] < 0.0575: // bottom quartile of [0.01, 0.2]
			lo += float64(g.OutDegree(NodeID(v)))
			nLo++
		case ps[v] > 0.1525: // top quartile
			hi += float64(g.OutDegree(NodeID(v)))
			nHi++
		}
	}
	if nLo == 0 || nHi == 0 {
		t.Fatal("quartiles empty")
	}
	if hi/float64(nHi) < 2*lo/float64(nLo) {
		t.Fatalf("degree should track p: lo %.1f hi %.1f", lo/float64(nLo), hi/float64(nHi))
	}
}

func TestGNPHeteroUniformCaseMatchesGNP(t *testing.T) {
	// pmin == pmax degenerates to (a reordering of) G(n,p): check the edge
	// count concentrates at p·n·(n-1).
	r := rng.New(11)
	n, p := 500, 0.05
	g, ps := NewScratch().GNPHetero(n, p, p, r)
	for _, pv := range ps {
		if pv != p {
			t.Fatal("degenerate range should give constant p")
		}
	}
	want := p * float64(n) * float64(n-1)
	if diff := float64(g.M()) - want; diff > 6*want/30 || diff < -6*want/30 {
		t.Fatalf("edge count %d too far from %v", g.M(), want)
	}
}

func TestGNPHeteroPanics(t *testing.T) {
	nan := math.NaN()
	for _, c := range [][2]float64{{0.5, 0.2}, {-0.1, 0.2}, {0.1, 1.5}, {nan, 0.2}, {0.1, nan}, {nan, nan}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("GNPHetero(pmin=%v, pmax=%v) did not panic", c[0], c[1])
				}
			}()
			NewScratch().GNPHetero(10, c[0], c[1], rng.New(1))
		}()
	}
}
