package radio

// Tests of the pluggable channel layer: every reception model must be
// engine-configuration invariant (the refactor's headline payoff — lossy and
// jammed runs now ride the pull/parallel kernels and the silent-skip fast
// path), deterministic across session segmentation (hashed draws), and
// correct on handcrafted capture/veto instances.

import (
	"slices"
	"testing"

	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/rng"
)

// receptionForcings is the full engine matrix the channel layer must be
// invariant under (the race CI leg runs this file's matrix tests).
var receptionForcings = []struct {
	name string
	o    EngineOverrides
}{
	{"default", EngineOverrides{}},
	{"push", EngineOverrides{Kernel: KernelPush}},
	{"pull", EngineOverrides{Kernel: KernelPull}},
	{"parallel", EngineOverrides{Kernel: KernelParallel}},
	{"dense", EngineOverrides{Kernel: KernelDense}},
	{"noskip", EngineOverrides{DisableSkip: true}},
	{"pull-noskip", EngineOverrides{Kernel: KernelPull, DisableSkip: true}},
}

// TestChannelModelForcingsBitIdentical is the channel-layer counterpart of
// TestEngineConfigurationsBitIdentical, and the regression pin for the
// refactor's acceptance claim: lossy and Jammed runs — once serial-only —
// and every new reception model must produce identical trajectories,
// transmissions and energy under every kernel, decision-path and skip
// forcing.
func TestChannelModelForcingsBitIdentical(t *testing.T) {
	defer SetEngineOverrides(EngineOverrides{})

	jam := func(round int) []graph.NodeID {
		// A deterministic rotating jammer: three receivers every fifth round.
		if round%5 != 2 {
			return nil
		}
		base := graph.NodeID(round % 97)
		return []graph.NodeID{base, base + 101, base + 202}
	}
	channels := map[string]func() Options{
		"lossy":  func() Options { return Options{MaxRounds: 2500, Reception: LossyChannel(0.25)} },
		"fade":   func() Options { return Options{MaxRounds: 2500, Reception: Fade(0.2)} },
		"jam":    func() Options { return Options{MaxRounds: 2500, Reception: Jam(0.15)} },
		"sinr":   func() Options { return Options{MaxRounds: 2500, Reception: SINRThreshold(0.5, 0.1)} },
		"jammed": func() Options { return Options{MaxRounds: 2500, Jammed: jam} },
	}
	for gname, g := range sparseTestGraphs(t) {
		for cname, mkOpt := range channels {
			for _, meter := range []bool{false, true} {
				run := func() *Result {
					opt := mkOpt()
					if meter {
						opt.Energy = &energy.Spec{Model: energy.CC2420(), Budget: 150}
					}
					return RunBroadcast(g, 0, &sbern{q: 0.02}, rng.New(42), opt)
				}
				SetEngineOverrides(EngineOverrides{})
				base := run()
				if base.Informed < g.N()/2 {
					t.Fatalf("%s/%s: only %d informed; workload not representative", gname, cname, base.Informed)
				}
				label := gname + "/" + cname
				if meter {
					label += "/budget"
				}
				for _, cfg := range receptionForcings[1:] {
					SetEngineOverrides(cfg.o)
					assertSameResult(t, label+"/"+cfg.name, base, run())
				}
				SetEngineOverrides(EngineOverrides{})
			}
		}
	}
}

// TestDutyCycleForcingsBitIdentical: duty-cycled listeners must compose
// exactly with every engine forcing — in particular the silent-span skip
// (schedule spans settle closed-form) and the predicted death rounds
// (budgeted run).
func TestDutyCycleForcingsBitIdentical(t *testing.T) {
	defer SetEngineOverrides(EngineOverrides{})

	scheds := []energy.DutyCycle{
		{Period: 2, On: 1},
		{Period: 4, On: 1},
		{Period: 5, On: 2},
	}
	for gname, g := range sparseTestGraphs(t) {
		for _, sched := range scheds {
			for _, budget := range []float64{0, 150} {
				sched := sched
				run := func() *Result {
					return RunBroadcast(g, 0, &sbern{q: 0.02}, rng.New(21), Options{
						MaxRounds: 2500,
						Energy:    &energy.Spec{Model: energy.CC2420(), Budget: budget, Schedule: &sched},
					})
				}
				SetEngineOverrides(EngineOverrides{})
				base := run()
				if base.Informed < g.N()/2 {
					t.Fatalf("%s/%+v: only %d informed; workload not representative", gname, sched, base.Informed)
				}
				for _, cfg := range receptionForcings[1:] {
					SetEngineOverrides(cfg.o)
					assertSameResult(t, gname+"/"+cfg.name, base, run())
				}
				SetEngineOverrides(EngineOverrides{})
			}
		}
	}
}

// TestFadeDeterministicAcrossSegments pins resume determinism: hashed
// channel draws are a pure function of (session seed, round, receiver), so
// splitting one session into many Run segments — the campaign-resume and
// mobility-epoch pattern — must reproduce the single-run trajectory exactly.
func TestFadeDeterministicAcrossSegments(t *testing.T) {
	for gname, g := range sparseTestGraphs(t) {
		for cname, model := range map[string]ReceptionModel{
			"fade":  Fade(0.25),
			"lossy": LossyChannel(0.25),
			"jam":   Jam(0.2),
		} {
			single := func() *Result {
				sess := NewBroadcastSession(g.N(), 0, &sbern{q: 0.03}, rng.New(9))
				return sess.Run(g, Options{MaxRounds: 600, Reception: model})
			}
			segmented := func() *Result {
				sess := NewBroadcastSession(g.N(), 0, &sbern{q: 0.03}, rng.New(9))
				var res *Result
				for seg := 0; seg < 6; seg++ {
					res = sess.Run(g, Options{MaxRounds: 100, Reception: model})
				}
				return res
			}
			a, b := single(), segmented()
			if a.Informed != b.Informed || a.TotalTx != b.TotalTx || a.MaxNodeTx != b.MaxNodeTx {
				t.Fatalf("%s/%s: one 600-round run and 6×100-round segments diverge: %+v vs %+v",
					gname, cname, a, b)
			}
		}
	}
}

// TestChanDrawPure: the determinism contract of the draw function itself —
// equal inputs collide, any argument change decorrelates, and the draw does
// not depend on evaluation order (it is a pure hash, not a stream).
func TestChanDrawPure(t *testing.T) {
	if chanDraw(1, 2, 3, 4) != chanDraw(1, 2, 3, 4) {
		t.Fatal("chanDraw is not a function of its arguments")
	}
	seen := map[uint64]bool{chanDraw(1, 2, 3, 4): true}
	for _, alt := range [][4]uint64{{9, 2, 3, 4}, {1, 9, 3, 4}, {1, 2, 9, 4}, {1, 2, 3, 9}} {
		d := chanDraw(alt[0], alt[1], alt[2], alt[3])
		if seen[d] {
			t.Fatalf("chanDraw%v aliases a previous draw", alt)
		}
		seen[d] = true
	}
	if pThreshold(0) != 0 {
		t.Fatal("pThreshold(0) must veto nothing")
	}
}

// TestSINRCaptureSemantics drives the capture rule through a handcrafted
// star: with K = 2 (beta 0.5, noise 0.1), two concurrent in-signals decode
// and three collide; the binary rule collides at two.
func TestSINRCaptureSemantics(t *testing.T) {
	// Star: 1, 2, 3 → 0.
	g := graph.FromEdges(4, [][2]graph.NodeID{{1, 0}, {2, 0}, {3, 0}})
	informed := NewBitset(4)
	for _, v := range []graph.NodeID{1, 2, 3} {
		informed.Set(v)
	}
	capture := SINRThreshold(0.5, 0.1).resolve(1)
	if capture.maxHits != 2 {
		t.Fatalf("SINRThreshold(0.5, 0.1) resolves to K=%d, want 2", capture.maxHits)
	}
	st := newDeliveryState(4)
	check := func(caps channelCaps, txs []graph.NodeID, wantDelivered, wantCollisions int) {
		t.Helper()
		d, c := st.deliver(g, 1, txs, informed, caps)
		if len(d) != wantDelivered || c != wantCollisions {
			t.Fatalf("txs %v caps{K=%d}: delivered %d collisions %d, want %d/%d",
				txs, caps.maxHits, len(d), c, wantDelivered, wantCollisions)
		}
	}
	check(channelCaps{maxHits: 1}, []graph.NodeID{1, 2}, 0, 1)                // binary: collision
	check(capture, []graph.NodeID{1, 2}, 1, 0)                                // K=2: captured
	check(capture, []graph.NodeID{1, 2, 3}, 0, 1)                             // K=2: three collide
	check(SINRThreshold(0.25, 0.1).resolve(1), []graph.NodeID{1, 2, 3}, 1, 0) // K=4
	// The pull kernel must apply the same limit.
	fr := newFrontierState(4)
	fr.sync(informed, 4)
	if d, _ := fr.deliver(g, 1, []graph.NodeID{1, 2}, capture); len(d) != 1 {
		t.Fatalf("pull kernel under capture: delivered %d, want 1", len(d))
	}
}

// TestSINRValidation: thresholds that admit no reception must refuse.
func TestSINRValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"beta 0":       func() { SINRThreshold(0, 0) },
		"noise eats K": func() { SINRThreshold(1, 1.5) },
		"fade 1":       func() { Fade(1) },
		"loss neg":     func() { LossyChannel(-0.1) },
		"loss 1":       func() { LossyChannel(1) },
		"jam 1":        func() { Jam(1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestFadeVetoKeepsFrontier: a fade-vetoed receiver must stay uninformed
// and receive in a later clear round — i.e. the engine applies recvOK as a
// post-filter without removing the node from play.
func TestFadeVetoKeepsFrontier(t *testing.T) {
	// 0 → 1: one transmitter, one listener, repeated transmissions.
	g := graph.FromEdges(2, [][2]graph.NodeID{{0, 1}})
	p := newScripted(map[int][]graph.NodeID{1: {0}, 2: {0}, 3: {0}, 4: {0}, 5: {0}, 6: {0}})
	res := RunBroadcast(g, 0, p, rng.New(77), Options{MaxRounds: 6, Reception: Fade(0.6)})
	caps := Fade(0.6).resolve(0) // seed-independent structure: recvOK set, edgeOK nil
	if caps.recvOK == nil || caps.edgeOK != nil || caps.maxHits != 1 {
		t.Fatalf("Fade resolves to unexpected capabilities %+v", caps)
	}
	if res.Informed == 2 && res.InformedRound == 1 {
		// Possible only if round 1 was clear for node 1 under this seed;
		// nothing to assert about veto recovery then — but with p = 0.6 over
		// 6 rounds the run informing at all is the point:
		return
	}
	if res.Informed != 2 {
		t.Fatalf("listener never informed across 6 repeated transmissions (fade 0.6, seed 77); "+
			"res %+v — veto may be removing the node from the frontier", res)
	}
}

// TestDropJammedEdgeCases: the jam filter's boundary behaviour on a
// 10-node session. The filter keeps the delivered order, ignores jam ids
// outside the node range, takes repeated and unsorted jam lists, and leaves
// its mark set clear after every call.
func TestDropJammedEdgeCases(t *testing.T) {
	mark := NewBitset(10)
	ids := func(v ...graph.NodeID) []graph.NodeID { return v }
	for _, tc := range []struct {
		name                    string
		delivered, jammed, want []graph.NodeID
	}{
		{"empty delivered", nil, ids(1, 2), nil},
		{"no jammers", ids(3, 4, 5), nil, ids(3, 4, 5)},
		{"all jammed", ids(3, 4, 5), ids(3, 4, 5), nil},
		{"repeated jam ids", ids(3, 4, 5), ids(4, 4, 4), ids(3, 5)},
		{"order kept", ids(9, 1, 7, 2), ids(1, 2), ids(9, 7)},
		{"unsorted jam list", ids(0, 2, 4, 6, 8), ids(8, 0, 6, 3), ids(2, 4)},
		{"out-of-range ids", ids(0, 9), ids(-1, 10, 63, 64, 1<<30, -1<<31), ids(0, 9)},
		{"mixed with out-of-range", ids(1, 5, 9), ids(12, 5, -3, 5), ids(1, 9)},
	} {
		got := dropJammed(mark, slices.Clone(tc.delivered), tc.jammed)
		if !equalNodeSlices(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
		if c := mark.Count(); c != 0 {
			t.Fatalf("%s: %d marks left set after the call", tc.name, c)
		}
	}
}
