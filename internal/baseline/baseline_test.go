package baseline

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
)

func TestFloodDirectedPath(t *testing.T) {
	b := graph.NewBuilder(8)
	for i := 0; i+1 < 8; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g := b.Build()
	res := radio.RunBroadcast(g, 0, Flood{}, rng.New(1), radio.Options{MaxRounds: 20, StopWhenInformed: true})
	if res.InformedRound != 7 {
		t.Fatalf("flood on directed path: round %d, want 7", res.InformedRound)
	}
}

func TestFixedProbWindowRetires(t *testing.T) {
	g := graph.Complete(4)
	f := &FixedProb{Q: 1, Window: 2}
	res := radio.RunBroadcast(g, 0, f, rng.New(1), radio.Options{MaxRounds: 100})
	// q=1 on K4: round 1 source informs all. Rounds 2,3: everyone collides.
	// Every node retires after its window, so the engine quiesces.
	if res.Rounds > 5 {
		t.Fatalf("FixedProb did not quiesce: ran %d rounds", res.Rounds)
	}
	if res.MaxNodeTx > 3 {
		t.Fatalf("node transmitted %d times with window 2", res.MaxNodeTx)
	}
}

func TestFixedProbEternal(t *testing.T) {
	g := graph.Complete(3)
	f := &FixedProb{Q: 0.5} // no window: never quiesces
	res := radio.RunBroadcast(g, 0, f, rng.New(2), radio.Options{MaxRounds: 50})
	if res.Rounds != 50 {
		t.Fatalf("eternal FixedProb stopped at %d", res.Rounds)
	}
}

func TestFixedProbCompletesOnObs43(t *testing.T) {
	// On the Observation 4.3 network a moderate q eventually informs all
	// destinations: each destination needs exactly one of its two
	// intermediates to fire, which happens w.p. 2q(1-q) per round.
	net := graph.NewObs43Network(16)
	f := &FixedProb{Q: 0.25}
	res := radio.RunBroadcast(net.G, net.Source, f, rng.New(3), radio.Options{MaxRounds: 500, StopWhenInformed: true})
	if !res.Completed() {
		t.Fatalf("obs43 incomplete: %d/%d", res.Informed, net.G.N())
	}
}

func TestFixedProbName(t *testing.T) {
	if (&FixedProb{Q: 0.125}).Name() != "fixed(q=0.125)" {
		t.Fatal("name format")
	}
}

func TestFixedProbPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for q > 1")
		}
	}()
	(&FixedProb{Q: 1.5}).Begin(4, 0, rng.New(1))
}

func TestDecayCompletesOnStar(t *testing.T) {
	// Star with many leaves informed simultaneously: Flood would livelock;
	// Decay's halving persistence isolates a single transmitter w.h.p.
	// Build: source -> all leaves; leaves -> hub.
	k := 64
	b := graph.NewBuilder(k + 2)
	hub := graph.NodeID(k + 1)
	for i := 1; i <= k; i++ {
		b.AddEdge(0, graph.NodeID(i))
		b.AddEdge(graph.NodeID(i), hub)
	}
	g := b.Build()
	completed := 0
	for seed := uint64(0); seed < 10; seed++ {
		d := NewDecay(12)
		res := radio.RunBroadcast(g, 0, d, rng.New(seed), radio.Options{MaxRounds: 2000, StopWhenInformed: true})
		if res.Completed() {
			completed++
		}
	}
	if completed < 8 {
		t.Fatalf("decay completed only %d/10 star trials", completed)
	}
}

func TestDecayCompletesOnGrid(t *testing.T) {
	g := graph.Grid2D(10, 10)
	d := NewDecay(40)
	res := radio.RunBroadcast(g, 0, d, rng.New(5), radio.Options{MaxRounds: 5000, StopWhenInformed: true})
	if !res.Completed() {
		t.Fatalf("decay on grid: informed %d/%d", res.Informed, g.N())
	}
}

func TestDecayQuiesces(t *testing.T) {
	g := graph.Complete(8)
	d := NewDecay(3)
	res := radio.RunBroadcast(g, 0, d, rng.New(6), radio.Options{MaxRounds: 10000})
	l := int(math.Ceil(math.Log2(8)))
	if res.Rounds > (3+1)*l+5 {
		t.Fatalf("decay ran %d rounds, budget ~%d", res.Rounds, 4*l)
	}
}

func TestDecayPhasePattern(t *testing.T) {
	// A node always transmits in the first round of each of its phases.
	d := NewDecay(2)
	d.Begin(16, 0, rng.New(7))
	d.OnInformed(0, 0)
	d.BeginRound(1)
	if !d.ShouldTransmit(1, 0) {
		t.Fatal("decay must transmit in round 1 of its phase")
	}
	l := int(math.Ceil(math.Log2(16)))
	d.BeginRound(1 + l)
	if !d.ShouldTransmit(1+l, 0) {
		t.Fatal("decay must transmit in first round of second phase")
	}
	// After Phases*l rounds it must be silent.
	d.BeginRound(1 + 2*l)
	if d.ShouldTransmit(1+2*l, 0) {
		t.Fatal("decay transmitted past its budget")
	}
	if !d.Quiesced(1 + 2*l) {
		t.Fatal("decay should quiesce after all nodes retire")
	}
}

func TestDecayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewDecay(0)
}

func TestCzumajRytterConstruction(t *testing.T) {
	n, D := 1024, 32
	cr := NewCzumajRytter(n, D, 1)
	if cr.Name() != "czumaj-rytter" {
		t.Fatal("name")
	}
	lambda := dist.LambdaFor(n, D)
	wantWindow := core.WindowRounds(n, float64(lambda))
	if cr.Window != wantWindow {
		t.Fatalf("CR window %d, want %d (lambda=%d)", cr.Window, wantWindow, lambda)
	}
	a3 := core.NewAlgorithm3(n, D, 1)
	if cr.Window <= a3.Window {
		t.Fatalf("CR window %d should exceed Algorithm 3 window %d", cr.Window, a3.Window)
	}
	if !strings.Contains(cr.Dist.Name, "alphaPrime") {
		t.Fatalf("CR must use alphaPrime, got %s", cr.Dist.Name)
	}
}

func TestCzumajRytterCompletesOnGrid(t *testing.T) {
	g := graph.Grid2D(12, 12)
	completed := 0
	for seed := uint64(0); seed < 5; seed++ {
		cr := NewCzumajRytter(g.N(), 22, 1)
		res := radio.RunBroadcast(g, 0, cr, rng.New(seed), radio.Options{MaxRounds: 60000})
		if res.Completed() {
			completed++
		}
	}
	if completed < 4 {
		t.Fatalf("CR completed %d/5 grid trials", completed)
	}
}

func TestElsasserGasieniecCompletes(t *testing.T) {
	n := 1024
	p := 0.054
	completed := 0
	for seed := uint64(0); seed < 8; seed++ {
		g := graph.GNPDirected(n, p, rng.New(seed))
		e := NewElsasserGasieniec(p)
		res := radio.RunBroadcast(g, 0, e, rng.New(seed^0xbeef), radio.Options{MaxRounds: 10000})
		if res.Completed() {
			completed++
		}
	}
	if completed < 6 {
		t.Fatalf("EG completed %d/8", completed)
	}
}

func TestElsasserGasieniecEnergyExceedsAlgorithm1(t *testing.T) {
	// The E12 story: EG floods for D-1 rounds, so nodes can transmit several
	// times; Algorithm 1 caps every node at one transmission.
	n := 4096
	p := 0.0163 // sparse: diam ceil(log n / log d) >= 2, so Phase 1 floods
	g := graph.GNPDirected(n, p, rng.New(77))
	e := NewElsasserGasieniec(p)
	eg := radio.RunBroadcast(g, 0, e, rng.New(78), radio.Options{MaxRounds: 10000})
	a := core.NewAlgorithm1(p)
	a1 := radio.RunBroadcast(g, 0, a, rng.New(78), radio.Options{MaxRounds: 10000})
	if a1.MaxNodeTx > 1 {
		t.Fatalf("Algorithm 1 max node tx %d", a1.MaxNodeTx)
	}
	if eg.MaxNodeTx < 2 {
		t.Fatalf("EG max node tx %d, expected >= 2 (flooding phase)", eg.MaxNodeTx)
	}
	if eg.TotalTx <= a1.TotalTx {
		t.Fatalf("EG total %d should exceed Algorithm 1 total %d", eg.TotalTx, a1.TotalTx)
	}
}

func TestElsasserGasieniecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewElsasserGasieniec(0).Begin(10, 0, rng.New(1))
}

func TestTDMAGossipAnyStronglyConnected(t *testing.T) {
	g := graph.Cycle(9)
	p := &TDMAGossip{}
	res := radio.RunGossip(g, p, rng.New(8), radio.GossipOptions{MaxRounds: 9 * 10, StopWhenComplete: true})
	if !res.Completed() {
		t.Fatalf("TDMA gossip incomplete on cycle: %d pairs", res.KnownPairs)
	}
	if res.MaxNodeTx > 10 {
		t.Fatalf("TDMA node tx %d", res.MaxNodeTx)
	}
}

func TestUniformGossipMatchesAlgorithm2Shape(t *testing.T) {
	n := 128
	p := 8 * math.Log(float64(n)) / float64(n)
	g := graph.GNPDirected(n, p, rng.New(9))
	d := float64(n) * p
	u := &UniformGossip{Q: 1 / d}
	res := radio.RunGossip(g, u, rng.New(10), radio.GossipOptions{MaxRounds: 100000, StopWhenComplete: true})
	if !res.Completed() {
		t.Fatal("uniform gossip incomplete")
	}
	a := core.NewAlgorithm2(p)
	res2 := radio.RunGossip(g, a, rng.New(10), radio.GossipOptions{MaxRounds: 100000, StopWhenComplete: true})
	if !res2.Completed() {
		t.Fatal("algorithm2 incomplete")
	}
	// Identical seeds and rates: identical runs.
	if res.CompleteRound != res2.CompleteRound || res.TotalTx != res2.TotalTx {
		t.Fatalf("uniform(1/d) and Algorithm 2 diverge: %d/%d vs %d/%d",
			res.CompleteRound, res.TotalTx, res2.CompleteRound, res2.TotalTx)
	}
}

func TestUniformGossipPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	(&UniformGossip{Q: -0.1}).Begin(4, rng.New(1))
}
