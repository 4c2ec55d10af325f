package radio

// Tests of the word-parallel dense delivery kernel: bit-exact equivalence
// with the serial push kernel at the deliver() level (delivered sets,
// ordering, and exact collision counts), and engine-level invariance under
// the KernelDense forcing across reception models — including the models
// the kernel must *refuse* (SINR capture, per-edge loss), where the forcing
// falls back to the counting kernels. The CI race leg runs this file's
// matrix under GOMAXPROCS ∈ {1, 2, 4}.

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// hideCSR wraps a materialised Digraph so the dense kernel's type switch
// misses and exercises the AppendOut (implicit-graph) accumulation path.
type hideCSR struct{ g *graph.Digraph }

func (h hideCSR) N() int                       { return h.g.N() }
func (h hideCSR) OutDegree(v graph.NodeID) int { return h.g.OutDegree(v) }
func (h hideCSR) InDegree(v graph.NodeID) int  { return h.g.InDegree(v) }
func (h hideCSR) CheapIn() bool                { return h.g.CheapIn() }
func (h hideCSR) AppendOut(v graph.NodeID, dst []graph.NodeID) []graph.NodeID {
	return h.g.AppendOut(v, dst)
}
func (h hideCSR) AppendIn(v graph.NodeID, dst []graph.NodeID) []graph.NodeID {
	return h.g.AppendIn(v, dst)
}

// TestDenseKernelAgainstReference checks the carry-save kernel directly
// against the serial push kernel on adversarial rounds: identical delivered
// sets in strictly ascending order, and — because both kernels are
// transmitter-side exact — identical collision counts. Both the CSR fast
// path and the AppendOut fallback are checked against the same reference.
func TestDenseKernelAgainstReference(t *testing.T) {
	n := 2048
	g := graph.GNPDirected(n, 4e-3, rng.New(91))
	r := rng.New(92)
	dn := newDenseState(n)
	dnImplicit := newDenseState(n)
	for trial := 0; trial < 30; trial++ {
		informed := NewBitset(n)
		var txs []graph.NodeID
		frac := 0.1 + 0.8*r.Float64()
		for v := 0; v < n; v++ {
			if r.Bernoulli(frac) {
				informed.Set(graph.NodeID(v))
				if r.Bernoulli(0.3) {
					txs = append(txs, graph.NodeID(v))
				}
			}
		}
		st := newDeliveryState(n)
		wantD, wantC := st.deliver(g, 1, txs, informed, channelCaps{maxHits: 1})

		for name, got := range map[string]*denseState{"csr": dn, "implicit": dnImplicit} {
			var gi graph.Implicit = g
			if name == "implicit" {
				gi = hideCSR{g}
			}
			gotD, gotC := got.deliver(gi, txs, informed)
			if !equalNodeSlices(gotD, wantD) {
				t.Fatalf("trial %d/%s: dense delivered %d nodes, push %d", trial, name, len(gotD), len(wantD))
			}
			for i := 1; i < len(gotD); i++ {
				if gotD[i-1] >= gotD[i] {
					t.Fatalf("trial %d/%s: dense output not strictly ascending at %d", trial, name, i)
				}
			}
			if gotC != wantC {
				t.Fatalf("trial %d/%s: dense collisions %d, push exact count %d", trial, name, gotC, wantC)
			}
		}
	}
}

// TestDensePlanesClearBetweenRounds pins the zero-state contract: the
// resolution pass must leave both carry planes empty, so back-to-back
// rounds never see stale hits. A stale bit would surface as a phantom
// collision in the next round.
func TestDensePlanesClearBetweenRounds(t *testing.T) {
	n := 512
	g := graph.GNPDirected(n, 0.05, rng.New(7))
	dn := newDenseState(n)
	informed := NewBitset(n)
	txs := []graph.NodeID{1, 2, 3, 4, 5, 6, 7, 8}
	for round := 0; round < 5; round++ {
		dn.deliver(g, txs, informed)
		if got := dn.hitOnce.Count() + dn.hitTwice.Count(); got != 0 {
			t.Fatalf("round %d: %d stale bits left in the carry planes", round, got)
		}
	}
}

// TestDenseForcingBitIdentical is the engine-level pin: forcing KernelDense
// must not change any observable of a run, on any reception model. Binary,
// Fade and Jam actually take the dense path (the models denseOK admits);
// LossyChannel and SINR exercise the fallback (the forcing degrades to the
// counting kernels because a saturating two-hit carry cannot represent
// per-edge loss or capture).
func TestDenseForcingBitIdentical(t *testing.T) {
	defer SetEngineOverrides(EngineOverrides{})

	channels := map[string]func() Options{
		"binary": func() Options { return Options{MaxRounds: 2500} },
		"fade":   func() Options { return Options{MaxRounds: 2500, Reception: Fade(0.2)} },
		"jam":    func() Options { return Options{MaxRounds: 2500, Reception: Jam(0.15)} },
		"lossy":  func() Options { return Options{MaxRounds: 2500, Reception: LossyChannel(0.25)} },
		"sinr":   func() Options { return Options{MaxRounds: 2500, Reception: SINRThreshold(0.5, 0.1)} },
	}
	for gname, g := range sparseTestGraphs(t) {
		for cname, mkOpt := range channels {
			run := func() *Result {
				opt := mkOpt()
				return RunBroadcast(g, 0, &sbern{q: 0.02}, rng.New(42), opt)
			}
			SetEngineOverrides(EngineOverrides{})
			base := run()
			SetEngineOverrides(EngineOverrides{Kernel: KernelDense})
			assertSameResult(t, gname+"/"+cname+"/dense", base, run())
			SetEngineOverrides(EngineOverrides{})
		}
	}
}

// TestDenseForcingPreservesHistory pins the per-round trajectory and the
// collision-exactness claim: with RecordHistory on, a forced-dense run must
// be bit-identical to forced push *including per-round collision counts* —
// the dense kernel's popcount(hitTwice) is the same transmitter-side exact
// count the push kernel maintains, so KernelDense stays legal under
// Options.ExactCollisions.
func TestDenseForcingPreservesHistory(t *testing.T) {
	defer SetEngineOverrides(EngineOverrides{})

	for gname, g := range sparseTestGraphs(t) {
		run := func(o EngineOverrides) *Result {
			SetEngineOverrides(o)
			return RunBroadcast(g, 0, &sbern{q: 0.05}, rng.New(3),
				Options{MaxRounds: 600, RecordHistory: true})
		}
		push := run(EngineOverrides{Kernel: KernelPush})
		dense := run(EngineOverrides{Kernel: KernelDense})
		SetEngineOverrides(EngineOverrides{})
		if !resultsEqual(push, dense) {
			t.Fatalf("%s: forced-dense run diverges from forced push under RecordHistory", gname)
		}
	}
}

// TestDenseOK pins the admission rule: only the binary collision rule with
// no per-edge filter may ride the saturating carry.
func TestDenseOK(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
		want bool
	}{
		{"binary", Options{}, true},
		{"fade", Options{Reception: Fade(0.2)}, true},
		{"jam", Options{Reception: Jam(0.15)}, true},
		{"lossy", Options{Reception: LossyChannel(0.25)}, false},
		{"sinr", Options{Reception: SINRThreshold(0.5, 0.1)}, false},
	}
	for _, c := range cases {
		model := c.opt.Reception
		if model == nil {
			model = Binary()
		}
		if got := denseOK(model.resolve(7)); got != c.want {
			t.Errorf("%s: denseOK = %v, want %v", c.name, got, c.want)
		}
	}
}
