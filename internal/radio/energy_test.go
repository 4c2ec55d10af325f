package radio

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/rng"
)

// bern is a minimal conforming shared-draw Bernoulli protocol (a FixedProb
// clone local to this package, so the energy tests can exercise the batch
// decision path without importing baseline and creating an import cycle).
type bern struct {
	q        float64
	r        *rng.RNG
	set      TxSet
	informed []graph.NodeID
}

func (b *bern) Name() string { return "bern" }
func (b *bern) Begin(n int, _ graph.NodeID, r *rng.RNG) {
	b.r = r
	b.set.Reset()
	b.informed = b.informed[:0]
}
func (b *bern) BeginRound(round int) {
	b.set.BeginRound()
	b.set.DrawList(b.r, b.informed, b.q)
}
func (b *bern) ShouldTransmit(round int, v graph.NodeID) bool { return b.set.Contains(v) }
func (b *bern) AppendTransmitters(_ int, _ []graph.NodeID, dst []graph.NodeID) []graph.NodeID {
	return b.set.AppendTo(dst)
}
func (b *bern) OnInformed(_ int, v graph.NodeID) { b.informed = append(b.informed, v) }
func (b *bern) Quiesced(int) bool                { return false }

// eventTrace records the engine's per-round transmit/deliver events.
type eventTrace struct {
	txs, rxs [][]graph.NodeID
}

func (tr *eventTrace) RoundStart(int) {
	tr.txs = append(tr.txs, nil)
	tr.rxs = append(tr.rxs, nil)
}
func (tr *eventTrace) Transmit(_ int, v graph.NodeID) {
	tr.txs[len(tr.txs)-1] = append(tr.txs[len(tr.txs)-1], v)
}
func (tr *eventTrace) Deliver(_ int, v graph.NodeID) {
	tr.rxs[len(tr.rxs)-1] = append(tr.rxs[len(tr.rxs)-1], v)
}
func (tr *eventTrace) RoundEnd(int, int, int, int) {}

// TestEngineEnergyMatchesNaiveReplay runs real broadcasts with the energy
// model on and re-derives every per-node spend and death round from the
// traced event stream with a naive one-state-per-node-per-round accounting.
// Binary-exact costs make the comparison exact. The idle-drain case is a
// mostly silent session (q = 1e-4) under staggered per-node budgets, in
// which every node dies of idle listening; the engine must stop at the
// round the last one dies.
func TestEngineEnergyMatchesNaiveReplay(t *testing.T) {
	m := energy.Model{Tx: 1, Rx: 0.5, Listen: 0.25, Sleep: 0.125}
	rgg, _ := graph.Geometric(graph.GeomSpec{N: 192, Radius: 2 * graph.ConnectivityRadius(192), Torus: true}, rng.New(11))
	idleBudgets := make([]float64, 96)
	for i := range idleBudgets {
		idleBudgets[i] = 3 + float64(i%17)
	}
	for _, c := range []struct {
		name      string
		g         *graph.Digraph
		proto     Broadcaster
		seed      uint64
		maxRounds int
		spec      *energy.Spec
		allDie    bool
	}{
		{"rgg", rgg, &bern{q: 0.1}, 5, 600, &energy.Spec{Model: m, Budget: 40}, false},
		{"idle-drain", graph.GNPDirected(96, 0.08, rng.New(21)), &sbern{q: 1e-4}, 17, 5000,
			&energy.Spec{Model: m, Budgets: idleBudgets, TrackPartition: true}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := c.g.N()
			budget := func(v int) float64 {
				if c.spec.Budgets != nil {
					return c.spec.Budgets[v]
				}
				return c.spec.Budget
			}
			tr := &eventTrace{}
			res := RunBroadcast(c.g, 0, c.proto, rng.New(c.seed),
				Options{MaxRounds: c.maxRounds, Tracer: tr, Energy: c.spec})
			if res.Energy == nil {
				t.Fatal("Result.Energy missing")
			}
			if res.Energy.DeadCount == 0 {
				t.Fatal("workload produced no deaths; tighten the budget to make this test meaningful")
			}

			spent := make([]float64, n)
			informed := make([]bool, n)
			dead := make([]bool, n)
			informed[0] = true
			first, half, last, deadCount := -1, -1, -1, 0
			for round := 1; round <= res.Rounds; round++ {
				isTx := make(map[graph.NodeID]bool)
				for _, v := range tr.txs[round-1] {
					if dead[v] {
						t.Fatalf("round %d: dead node %d transmitted", round, v)
					}
					isTx[v] = true
				}
				isRx := make(map[graph.NodeID]bool)
				for _, v := range tr.rxs[round-1] {
					if dead[v] {
						t.Fatalf("round %d: dead node %d received", round, v)
					}
					isRx[v] = true
				}
				for v := 0; v < n; v++ {
					if dead[v] {
						continue
					}
					switch {
					case isTx[graph.NodeID(v)]:
						spent[v] += m.Tx
					case isRx[graph.NodeID(v)]:
						spent[v] += m.Rx
					case informed[v]:
						spent[v] += m.Sleep
					default:
						spent[v] += m.Listen
					}
				}
				for _, v := range tr.rxs[round-1] {
					informed[v] = true
				}
				for v := 0; v < n; v++ {
					if !dead[v] && spent[v] >= budget(v)-1e-9 {
						dead[v] = true
						deadCount++
						last = round
						if first < 0 {
							first = round
						}
						if half < 0 && 2*deadCount >= n {
							half = round
						}
					}
				}
			}
			for v := 0; v < n; v++ {
				if res.Energy.Spent[v] != spent[v] {
					t.Fatalf("node %d: engine spent %g, naive replay %g", v, res.Energy.Spent[v], spent[v])
				}
			}
			if res.Energy.DeadCount != deadCount ||
				res.Energy.FirstDeathRound != first || res.Energy.HalfDeathRound != half {
				t.Fatalf("lifetime (%d dead, first %d, half %d), naive (%d, %d, %d)",
					res.Energy.DeadCount, res.Energy.FirstDeathRound, res.Energy.HalfDeathRound,
					deadCount, first, half)
			}
			if c.allDie && (deadCount != n || res.Rounds != last) {
				t.Fatalf("%d of %d nodes dead, last death in round %d; the engine stopped after round %d",
					deadCount, n, last, res.Rounds)
			}
		})
	}
}

// TestEnergyEquivalenceAcrossEngineConfigurations is the satellite
// equivalence extension: per-node energy, residual charge and lifetime
// rounds must be bit-identical whichever decision path (batch, or the
// per-node loop a protocol without AppendTransmitters gets) and delivery
// kernel (serial/parallel) the engine uses, on both G(n,p) and UDG
// topologies.
func TestEnergyEquivalenceAcrossEngineConfigurations(t *testing.T) {
	defer SetEngineOverrides(EngineOverrides{})

	n := 256
	tops := []struct {
		name string
		g    *graph.Digraph
	}{
		{"gnp", graph.GNPDirected(n, 8*math.Log(float64(n))/float64(n), rng.New(3))},
		{"udg", graph.RGG(n, 2*graph.ConnectivityRadius(n), true, rng.New(4))},
	}
	spec := &energy.Spec{Model: energy.CC2420(), Budget: 60, TrackPartition: true}
	run := func(g *graph.Digraph, p Broadcaster) *Result {
		return RunBroadcast(g, 0, p, rng.New(99), Options{MaxRounds: 500, Energy: spec})
	}
	for _, tp := range tops {
		SetEngineOverrides(EngineOverrides{})
		base := run(tp.g, &bern{q: 0.05})
		if base.Energy.DeadCount == 0 {
			t.Fatalf("%s: no deaths; the equivalence test is not exercising depletion", tp.name)
		}
		scalar := run(tp.g, scalarOnly{&bern{q: 0.05}})
		SetEngineOverrides(EngineOverrides{Kernel: KernelParallel})
		parallel := run(tp.g, &bern{q: 0.05})
		for _, alt := range []*Result{scalar, parallel} {
			if alt.Rounds != base.Rounds || alt.Informed != base.Informed || alt.TotalTx != base.TotalTx {
				t.Fatalf("%s: engine results diverge under overrides", tp.name)
			}
			for v := range base.Energy.Spent {
				if alt.Energy.Spent[v] != base.Energy.Spent[v] {
					t.Fatalf("%s node %d: spend %g vs %g across engine paths",
						tp.name, v, alt.Energy.Spent[v], base.Energy.Spent[v])
				}
				if alt.Energy.Residual[v] != base.Energy.Residual[v] {
					t.Fatalf("%s node %d: residual differs across engine paths", tp.name, v)
				}
			}
			if alt.Energy.FirstDeathRound != base.Energy.FirstDeathRound ||
				alt.Energy.HalfDeathRound != base.Energy.HalfDeathRound ||
				alt.Energy.PartitionRound != base.Energy.PartitionRound ||
				alt.Energy.DeadCount != base.Energy.DeadCount {
				t.Fatalf("%s: lifetime marks differ across engine paths", tp.name)
			}
		}
	}
}

// TestDepletedNodesStopTransmitting: flooding a path with a 2-transmission
// battery, every node emits exactly twice and the session halts once the
// whole network is depleted.
func TestDepletedNodesStopTransmitting(t *testing.T) {
	g := graph.Path(3) // directed 0 -> 1 -> 2
	res := RunBroadcast(g, 0, flood{}, rng.New(1),
		Options{MaxRounds: 50, Energy: &energy.Spec{Model: energy.UnitTx(), Budget: 2}})
	// Every node exhausts its 2-transmission budget (node 2, informed in
	// round 2, transmits in rounds 3-4).
	for v, c := range res.PerNodeTx {
		if c != 2 {
			t.Fatalf("node %d transmitted %d times, want 2", v, c)
		}
	}
	// Node 2 is informed at round 2 and dies at the end of round 4; the
	// engine must stop there, not burn the other 46 rounds.
	if res.Rounds != 4 {
		t.Fatalf("session ran %d rounds, want early stop at 4 (network dead)", res.Rounds)
	}
	if res.Energy.DeadCount != 3 || res.Energy.FirstDeathRound != 2 {
		t.Fatalf("deaths (%d, first %d), want (3, 2)", res.Energy.DeadCount, res.Energy.FirstDeathRound)
	}
}

// TestDeadReceiverSemantics: with the default model a node that depletes
// before the message reaches it never joins the informed set; with
// DeadReceive it still does (the paper's listening-is-free reading).
func TestDeadReceiverSemantics(t *testing.T) {
	g := graph.Path(3)
	// Listen costs 1/round; node 2's battery dies at the end of round 1,
	// before the message (which needs two hops) can reach it.
	budgets := []float64{100, 100, 1}
	m := energy.Model{Tx: 1, Listen: 1}

	res := RunBroadcast(g, 0, flood{}, rng.New(1),
		Options{MaxRounds: 6, Energy: &energy.Spec{Model: m, Budgets: budgets}})
	if res.Informed != 2 || res.Completed() {
		t.Fatalf("dead receiver joined the informed set: informed=%d", res.Informed)
	}

	res = RunBroadcast(g, 0, flood{}, rng.New(1),
		Options{MaxRounds: 6, Energy: &energy.Spec{Model: m, Budgets: budgets, DeadReceive: true}})
	if res.Informed != 3 || !res.Completed() {
		t.Fatalf("DeadReceive: informed=%d, want 3", res.Informed)
	}
}

// TestEnergyResumeAcrossCampaigns: a second session resuming the first's
// battery bank keeps draining the same charge and keeps the age clock, and
// keeps the bank's DeadReceive setting.
func TestEnergyResumeAcrossCampaigns(t *testing.T) {
	g := graph.Cycle(8)
	spec := &energy.Spec{Model: energy.UnitTx(), Budget: 5}

	s1 := NewBroadcastSession(8, 0, flood{}, rng.New(1))
	r1 := s1.Run(g, Options{MaxRounds: 3, Energy: spec})
	bank := s1.EnergyState()
	if bank == nil {
		t.Fatal("no energy state captured")
	}

	s2 := NewBroadcastSession(8, 1, flood{}, rng.New(2))
	r2 := s2.Run(g, Options{MaxRounds: 3, Energy: &energy.Spec{Resume: bank}})
	if s2.EnergyState() != bank {
		t.Fatal("resumed session did not adopt the battery bank")
	}
	if r2.Energy.TxEnergy <= r1.Energy.TxEnergy {
		t.Fatalf("cumulative tx energy did not grow across campaigns: %g then %g",
			r1.Energy.TxEnergy, r2.Energy.TxEnergy)
	}
	for v := range r2.Energy.Spent {
		if r2.Energy.Spent[v] < r1.Energy.Spent[v] {
			t.Fatalf("node %d: spend shrank across campaigns", v)
		}
	}

	// Node 2 of the path 0 -> 1 -> 2 runs flat in campaign 1 (its one unit
	// goes in round 3). In campaign 2 it is informed only when the bank was
	// started with DeadReceive.
	path := graph.Path(3)
	for _, deadReceive := range []bool{false, true} {
		spec := &energy.Spec{Model: energy.UnitTx(), Budgets: []float64{100, 100, 1}, DeadReceive: deadReceive}
		c1 := NewBroadcastSession(3, 0, flood{}, rng.New(1))
		c1.Run(path, Options{MaxRounds: 3, Energy: spec})
		if c1.EnergyState().Alive(2) {
			t.Fatalf("DeadReceive=%v: node 2 survived campaign 1", deadReceive)
		}
		c2 := NewBroadcastSession(3, 0, flood{}, rng.New(2))
		r := c2.Run(path, Options{MaxRounds: 3, Energy: &energy.Spec{Resume: c1.EnergyState()}})
		if r.Completed() != deadReceive {
			t.Fatalf("DeadReceive=%v: campaign 2 informed %d of 3 nodes", deadReceive, r.Informed)
		}
	}
}

// TestEnergySpecRejects: malformed energy specs panic when the session
// captures them, naming what is wrong.
func TestEnergySpecRejects(t *testing.T) {
	other := NewBroadcastSession(5, 0, flood{}, rng.New(1))
	other.Run(graph.Cycle(5), Options{MaxRounds: 1, Energy: &energy.Spec{Model: energy.UnitTx()}})
	for _, c := range []struct {
		name string
		spec *energy.Spec
		want string
	}{
		{"negative budget", &energy.Spec{Model: energy.UnitTx(), Budget: -1}, "negative budget"},
		{"budgets of the wrong length", &energy.Spec{Model: energy.UnitTx(), Budgets: []float64{1, 1, 1}}, "3 per-node budgets"},
		{"non-positive node budget", &energy.Spec{Model: energy.UnitTx(), Budgets: []float64{1, 1, 0, 1}}, "non-positive budget"},
		{"negative state cost", &energy.Spec{Model: energy.Model{Tx: 1, Listen: -0.5}}, "negative state cost"},
		{"NaN budget", &energy.Spec{Model: energy.UnitTx(), Budget: math.NaN()}, "NaN budget"},
		{"NaN node budget", &energy.Spec{Model: energy.UnitTx(), Budgets: []float64{1, 1, math.NaN(), 1}}, "NaN budget for node 2"},
		{"NaN state cost", &energy.Spec{Model: energy.Model{Tx: 1, Sleep: math.NaN()}}, "NaN state cost"},
		{"bank of another network", &energy.Spec{Resume: other.EnergyState()}, "different network"},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), c.want) {
					t.Fatalf("panic %v, want one mentioning %q", r, c.want)
				}
			}()
			RunBroadcast(graph.Cycle(4), 0, flood{}, rng.New(1), Options{MaxRounds: 1, Energy: c.spec})
		})
	}
}

// TestEnergySpecChangeMidSessionPanics pins the capture rule.
func TestEnergySpecChangeMidSessionPanics(t *testing.T) {
	g := graph.Cycle(4)
	s := NewBroadcastSession(4, 0, flood{}, rng.New(1))
	s.Run(g, Options{MaxRounds: 2, Energy: &energy.Spec{Model: energy.UnitTx(), Budget: 10}})
	defer func() {
		if recover() == nil {
			t.Fatal("changing Options.Energy mid-session should panic")
		}
	}()
	s.Run(g, Options{MaxRounds: 2, Energy: &energy.Spec{Model: energy.UnitTx(), Budget: 99}})
}

// TestEnergyAccountingAllocationFree: with a warm Scratch, the per-round
// energy accounting must not allocate — a 40× longer run costs the same
// fixed per-Run allocations (Result, Report, per-node copies).
func TestEnergyAccountingAllocationFree(t *testing.T) {
	n := 128
	g := graph.Cycle(n)
	sc := NewScratch()
	spec := &energy.Spec{Model: energy.CC2420(), Budget: 1e9}
	run := func(rounds int) {
		RunBroadcastWith(sc, g, 0, flood{}, rng.New(7), Options{MaxRounds: rounds, Energy: spec})
	}
	run(50) // warm the scratch
	short := testing.AllocsPerRun(10, func() { run(50) })
	long := testing.AllocsPerRun(10, func() { run(2000) })
	if long > short+1 {
		t.Fatalf("per-round allocation leak: %v allocs for 50 rounds, %v for 2000", short, long)
	}
}
