package baseline

// Engine-forcing equivalence for the baseline protocols (see the core
// package's batch_test.go for the paper's algorithms), and the per-round
// shared-draw oracle test over every BatchBroadcaster in core and baseline.

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
)

// baselineForcings is the override matrix pinned by the baseline
// equivalence tests: delivery kernel × skip. Collisions are compared only
// between transmitter-side kernels (the pull kernel counts uninformed-side
// collisions only).
var baselineForcings = []struct {
	name string
	o    radio.EngineOverrides
}{
	{"push", radio.EngineOverrides{Kernel: radio.KernelPush}},
	{"pull", radio.EngineOverrides{Kernel: radio.KernelPull}},
	{"parallel", radio.EngineOverrides{Kernel: radio.KernelParallel}},
	{"dense", radio.EngineOverrides{Kernel: radio.KernelDense}},
	{"noskip", radio.EngineOverrides{DisableSkip: true}},
}

// oracle wraps a BatchBroadcaster and checks the shared-draw contract in
// every round the engine runs: asking ShouldTransmit for every informed
// node, in informing order, must give exactly the AppendTransmitters list.
// The engine runs on the batch list, so the run is the production one.
type oracle struct {
	radio.BatchBroadcaster
	t      *testing.T
	label  string
	want   []graph.NodeID
	rounds int // rounds checked with at least one transmitter
}

func (o *oracle) AppendTransmitters(round int, informed, dst []graph.NodeID) []graph.NodeID {
	start := len(dst)
	dst = o.BatchBroadcaster.AppendTransmitters(round, informed, dst)
	o.want = o.want[:0]
	for _, v := range informed {
		if o.ShouldTransmit(round, v) {
			o.want = append(o.want, v)
		}
	}
	if got := dst[start:]; !slices.Equal(got, o.want) {
		o.t.Fatalf("%s round %d: AppendTransmitters gave %d transmitters %v, ShouldTransmit %d %v",
			o.label, round, len(got), got, len(o.want), o.want)
	}
	if len(o.want) > 0 {
		o.rounds++
	}
	return dst
}

// TestShouldTransmitOracleMatchesAppendTransmitters runs every
// BatchBroadcaster in core and baseline through the engine under the
// oracle above: ShouldTransmit, the paper-literal per-node decision, must
// name the batch transmitter list of every round, in the same order.
func TestShouldTransmitOracleMatchesAppendTransmitters(t *testing.T) {
	sparse := graph.GNPDirected(1024, 0.02, rng.New(1))
	dense := graph.GNPDirected(512, 0.2, rng.New(2))
	grid := graph.Grid2D(16, 16)
	udg := graph.RGG(512, 2*graph.ConnectivityRadius(512), true, rng.New(9))
	star := graph.Star(64)
	for _, tc := range []struct {
		name      string
		g         *graph.Digraph
		mk        func() radio.Broadcaster
		maxRounds int
	}{
		{"algorithm1-sparse", sparse, func() radio.Broadcaster { return core.NewAlgorithm1(0.02) }, 20000},
		{"algorithm1-dense", dense, func() radio.Broadcaster { return core.NewAlgorithm1(0.2) }, 20000},
		{"algorithm1-ablated", sparse, func() radio.Broadcaster {
			a := core.NewAlgorithm1(0.02)
			a.DisablePhase2 = true
			return a
		}, 20000},
		{"algorithm3", grid, func() radio.Broadcaster { return core.NewAlgorithm3(256, 30, 1) }, 20000},
		{"algorithm3-udg", udg, func() radio.Broadcaster { return core.NewAlgorithm3(512, 20, 1) }, 20000},
		{"tradeoff", grid, func() radio.Broadcaster { return core.NewTradeoff(256, 5, 1) }, 20000},
		{"unknown-diameter", grid, func() radio.Broadcaster { return core.NewUnknownDiameter(256, 1) }, 20000},
		{"flood", star, func() radio.Broadcaster { return Flood{} }, 10},
		{"fixedprob", sparse, func() radio.Broadcaster { return &FixedProb{Q: 0.1} }, 400},
		{"fixedprob-window", sparse, func() radio.Broadcaster { return &FixedProb{Q: 0.1, Window: 60} }, 4000},
		{"fixedprob-udg-lowq", udg, func() radio.Broadcaster { return &FixedProb{Q: 0.004, Window: 300} }, 20000},
		{"elsasser-gasieniec", sparse, func() radio.Broadcaster { return NewElsasserGasieniec(0.02) }, 4000},
		{"elsasser-gasieniec-udg", udg, func() radio.Broadcaster { return NewElsasserGasieniec(0.03) }, 4000},
		{"czumaj-rytter", sparse, func() radio.Broadcaster { return NewCzumajRytter(1024, 8, 1) }, 20000},
	} {
		for seed := uint64(0); seed < 3; seed++ {
			b, ok := tc.mk().(radio.BatchBroadcaster)
			if !ok {
				t.Fatalf("%s does not implement radio.BatchBroadcaster", tc.name)
			}
			o := &oracle{BatchBroadcaster: b, t: t, label: tc.name}
			res := radio.RunBroadcast(tc.g, 0, o, rng.New(seed), radio.Options{MaxRounds: tc.maxRounds})
			if o.rounds == 0 || res.Informed < 2 {
				t.Fatalf("%s seed=%d: %d transmitting rounds, %d informed; the oracle checked nothing",
					tc.name, seed, o.rounds, res.Informed)
			}
		}
	}
}

func TestBaselineBatchDecisionEquivalence(t *testing.T) {
	defer radio.SetEngineOverrides(radio.EngineOverrides{})
	g := graph.GNPDirected(512, 0.03, rng.New(1))
	udg := graph.RGG(512, 2*graph.ConnectivityRadius(512), true, rng.New(4))
	star := graph.Star(64)
	for _, tc := range []struct {
		name string
		g    *graph.Digraph
		mk   func() radio.Broadcaster
		opt  radio.Options
	}{
		{"flood", star, func() radio.Broadcaster { return Flood{} },
			radio.Options{MaxRounds: 10}},
		{"fixedprob", g, func() radio.Broadcaster { return &FixedProb{Q: 0.1} },
			radio.Options{MaxRounds: 400}},
		{"fixedprob-window", g, func() radio.Broadcaster { return &FixedProb{Q: 0.1, Window: 60} },
			radio.Options{MaxRounds: 4000}},
		{"fixedprob-udg-lowq", udg, func() radio.Broadcaster { return &FixedProb{Q: 0.004, Window: 300} },
			radio.Options{MaxRounds: 20000}},
		{"elsasser-gasieniec", g, func() radio.Broadcaster { return NewElsasserGasieniec(0.03) },
			radio.Options{MaxRounds: 4000}},
		{"elsasser-gasieniec-udg", udg, func() radio.Broadcaster { return NewElsasserGasieniec(0.03) },
			radio.Options{MaxRounds: 4000}},
		{"czumaj-rytter", g, func() radio.Broadcaster { return NewCzumajRytter(512, 8, 1) },
			radio.Options{MaxRounds: 20000}},
	} {
		if _, ok := tc.mk().(radio.BatchBroadcaster); !ok {
			t.Fatalf("%s does not implement radio.BatchBroadcaster", tc.name)
		}
		for seed := uint64(0); seed < 3; seed++ {
			for _, hist := range []bool{true, false} {
				opt := tc.opt
				opt.RecordHistory = hist
				radio.SetEngineOverrides(radio.EngineOverrides{})
				base := radio.RunBroadcast(tc.g, 0, tc.mk(), rng.New(seed), opt)
				for _, f := range baselineForcings {
					radio.SetEngineOverrides(f.o)
					alt := radio.RunBroadcast(tc.g, 0, tc.mk(), rng.New(seed), opt)
					if base.Rounds != alt.Rounds || base.InformedRound != alt.InformedRound ||
						base.Informed != alt.Informed || base.TotalTx != alt.TotalTx ||
						base.MaxNodeTx != alt.MaxNodeTx {
						t.Fatalf("%s seed=%d [%s]: results diverge", tc.name, seed, f.name)
					}
					for i := range base.PerNodeTx {
						if base.PerNodeTx[i] != alt.PerNodeTx[i] {
							t.Fatalf("%s seed=%d [%s]: per-node tx differ at node %d",
								tc.name, seed, f.name, i)
						}
					}
					for i := range base.History {
						w, h := base.History[i], alt.History[i]
						if w.Round != h.Round || w.Transmitters != h.Transmitters ||
							w.NewlyInformed != h.NewlyInformed || w.Informed != h.Informed {
							t.Fatalf("%s seed=%d [%s]: history differs at %d",
								tc.name, seed, f.name, i)
						}
					}
				}
				radio.SetEngineOverrides(radio.EngineOverrides{})
			}
		}
	}
}

// TestGossipBaselineBatchDecisionEquivalence pins that gossip reads no
// engine override: every forcing leaves each gossip baseline's run as it
// is.
func TestGossipBaselineBatchDecisionEquivalence(t *testing.T) {
	defer radio.SetEngineOverrides(radio.EngineOverrides{})
	g := graph.GNPDirected(128, 0.1, rng.New(2))
	for _, tc := range []struct {
		name string
		mk   func() radio.Gossiper
	}{
		{"tdma-gossip", func() radio.Gossiper { return &TDMAGossip{} }},
		{"uniform-gossip", func() radio.Gossiper { return &UniformGossip{Q: 0.08} }},
		// Dense rounds (most nodes transmitting) exercise the collision
		// path, sparse ones long runs of silent rounds.
		{"uniform-gossip-dense", func() radio.Gossiper { return &UniformGossip{Q: 0.85} }},
		{"uniform-gossip-sparse", func() radio.Gossiper { return &UniformGossip{Q: 0.003} }},
	} {
		opt := radio.GossipOptions{MaxRounds: 2000, StopWhenComplete: true}
		for seed := uint64(0); seed < 3; seed++ {
			radio.SetEngineOverrides(radio.EngineOverrides{})
			base := radio.RunGossip(g, tc.mk(), rng.New(seed), opt)
			for _, f := range baselineForcings {
				radio.SetEngineOverrides(f.o)
				alt := radio.RunGossip(g, tc.mk(), rng.New(seed), opt)
				if base.Rounds != alt.Rounds || base.CompleteRound != alt.CompleteRound ||
					base.TotalTx != alt.TotalTx || base.KnownPairs != alt.KnownPairs ||
					base.MaxNodeTx != alt.MaxNodeTx {
					t.Fatalf("%s seed=%d [%s]: gossip engines diverge", tc.name, seed, f.name)
				}
				for i := range base.PerNodeTx {
					if base.PerNodeTx[i] != alt.PerNodeTx[i] {
						t.Fatalf("%s seed=%d [%s]: per-node tx differ at %d", tc.name, seed, f.name, i)
					}
				}
			}
			radio.SetEngineOverrides(radio.EngineOverrides{})
		}
	}
}
