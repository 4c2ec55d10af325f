package baseline

// Batch-vs-scalar decision equivalence for the baseline protocols (see the
// core package's batch_test.go for the paper's algorithms).

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
)

// baselineForcings is the override matrix pinned by the baseline
// equivalence tests: decision path × delivery kernel × skip. Collisions are
// compared only between transmitter-side kernels (the pull kernel counts
// uninformed-side collisions only).
var baselineForcings = []struct {
	name string
	o    radio.EngineOverrides
}{
	{"scalar", radio.EngineOverrides{ScalarDecisions: true}},
	{"push", radio.EngineOverrides{Kernel: radio.KernelPush}},
	{"pull", radio.EngineOverrides{Kernel: radio.KernelPull}},
	{"parallel", radio.EngineOverrides{Kernel: radio.KernelParallel}},
	{"dense", radio.EngineOverrides{Kernel: radio.KernelDense}},
	{"noskip", radio.EngineOverrides{DisableSkip: true}},
	{"scalar-pull", radio.EngineOverrides{ScalarDecisions: true, Kernel: radio.KernelPull}},
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
		// path, sparse ones the cross-round silent skip.
		{"uniform-gossip-dense", func() radio.Gossiper { return &UniformGossip{Q: 0.85} }},
		{"uniform-gossip-sparse", func() radio.Gossiper { return &UniformGossip{Q: 0.003} }},
	} {
		if _, ok := tc.mk().(radio.BatchGossiper); !ok {
			t.Fatalf("%s does not implement radio.BatchGossiper", tc.name)
		}
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
