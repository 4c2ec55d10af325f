package radio

// Tests of the sparse round engine: the receiver-centric pull kernel, the
// adaptive kernel selection, and the cross-round silent-skip fast path.
// Every engine configuration must be bit-identical on the informed
// trajectory, per-node transmissions, rounds and energy report; only
// Result.Collisions may differ under the pull kernel (uninformed-side
// counting — see the Result.Collisions contract), which is why the
// comparisons here split into a collision-exact matrix (history on, skip
// auto-disabled) and a skip matrix (history off).

import (
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/rng"
)

// sbern is a minimal UniformRound protocol: every informed node transmits
// with probability q each round, drawn through the cross-round stream
// contract (a FixedProb clone local to this package).
type sbern struct {
	q        float64
	r        *rng.RNG
	set      TxSet
	informed []graph.NodeID
}

func (b *sbern) Name() string { return "sbern" }
func (b *sbern) Begin(n int, _ graph.NodeID, r *rng.RNG) {
	b.r = r
	b.set.Reset()
	b.informed = b.informed[:0]
}
func (b *sbern) BeginRound(round int) {
	b.set.BeginRound()
	b.set.DrawListStream(b.r, b.informed, b.q)
}
func (b *sbern) ShouldTransmit(round int, v graph.NodeID) bool { return b.set.Contains(v) }
func (b *sbern) AppendTransmitters(_ int, _ []graph.NodeID, dst []graph.NodeID) []graph.NodeID {
	return b.set.AppendTo(dst)
}
func (b *sbern) OnInformed(_ int, v graph.NodeID) { b.informed = append(b.informed, v) }
func (b *sbern) Quiesced(int) bool                { return false }
func (b *sbern) RoundProb(int) (float64, bool)    { return b.q, true }
func (b *sbern) SkipSilent(from, to int) int {
	if to < from || len(b.informed) == 0 {
		return from
	}
	return from + b.set.StreamSilentRounds(b.r, len(b.informed), b.q, to-from+1)
}

// sparseTestGraphs returns the two acceptance topologies: G(n,p) and a UDG.
func sparseTestGraphs(t *testing.T) map[string]*graph.Digraph {
	t.Helper()
	n := 512
	return map[string]*graph.Digraph{
		"gnp": graph.GNPDirected(n, 6*math.Log(float64(n))/float64(n), rng.New(7)),
		"udg": graph.RGG(n, 2*graph.ConnectivityRadius(n), true, rng.New(8)),
	}
}

// assertSameResult compares everything except Collisions and History.
func assertSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Rounds != want.Rounds || got.InformedRound != want.InformedRound ||
		got.Informed != want.Informed || got.TotalTx != want.TotalTx ||
		got.MaxNodeTx != want.MaxNodeTx {
		t.Fatalf("%s: results diverge\nwant %+v\ngot  %+v", label, want, got)
	}
	for i := range want.PerNodeTx {
		if want.PerNodeTx[i] != got.PerNodeTx[i] {
			t.Fatalf("%s: per-node tx differ at node %d", label, i)
		}
	}
	if (want.Energy == nil) != (got.Energy == nil) {
		t.Fatalf("%s: energy report presence differs", label)
	}
	if want.Energy != nil {
		we, ge := want.Energy, got.Energy
		if we.TxEnergy != ge.TxEnergy || we.RxEnergy != ge.RxEnergy ||
			we.ListenEnergy != ge.ListenEnergy || we.SleepEnergy != ge.SleepEnergy ||
			we.DeadCount != ge.DeadCount || we.FirstDeathRound != ge.FirstDeathRound ||
			we.HalfDeathRound != ge.HalfDeathRound || we.PartitionRound != ge.PartitionRound {
			t.Fatalf("%s: energy reports diverge\nwant %+v\ngot  %+v", label, we, ge)
		}
		for v := range we.Spent {
			if we.Spent[v] != ge.Spent[v] {
				t.Fatalf("%s: per-node energy spend differs at node %d", label, v)
			}
		}
	}
}

// TestEngineConfigurationsBitIdentical is the headline equivalence pin:
// push / pull / parallel / adaptive kernels and skip on / off must all
// yield the same informed trajectory, transmissions, rounds and energy, on
// G(n,p) and UDG, with and without battery budgets.
func TestEngineConfigurationsBitIdentical(t *testing.T) {
	defer SetEngineOverrides(EngineOverrides{})

	configs := []struct {
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
	specs := map[string]func() *energy.Spec{
		"nometer": func() *energy.Spec { return nil },
		"budget": func() *energy.Spec {
			return &energy.Spec{Model: energy.CC2420(), Budget: 150, TrackPartition: true}
		},
	}
	for gname, g := range sparseTestGraphs(t) {
		for ename, mkSpec := range specs {
			run := func() *Result {
				return RunBroadcast(g, 0, &sbern{q: 0.02}, rng.New(42),
					Options{MaxRounds: 2500, Energy: mkSpec()})
			}
			SetEngineOverrides(EngineOverrides{})
			base := run()
			if ename == "budget" && base.Energy.DeadCount == 0 {
				t.Fatalf("%s: no deaths; the budget matrix is not exercising depletion", gname)
			}
			for _, cfg := range configs[1:] {
				SetEngineOverrides(cfg.o)
				assertSameResult(t, gname+"/"+ename+"/"+cfg.name, base, run())
			}
			SetEngineOverrides(EngineOverrides{})
		}
	}
}

// TestKernelForcingsPreserveHistory pins the per-round trajectory: with
// RecordHistory on (which suspends skipping), every kernel forcing must
// produce the same transmitter/delivery history. Collisions are compared
// only between the transmitter-side kernels; the pull kernel's count covers
// uninformed receivers only and must never exceed the exact count.
func TestKernelForcingsPreserveHistory(t *testing.T) {
	defer SetEngineOverrides(EngineOverrides{})

	for gname, g := range sparseTestGraphs(t) {
		run := func(o EngineOverrides) *Result {
			SetEngineOverrides(o)
			return RunBroadcast(g, 0, &sbern{q: 0.05}, rng.New(3),
				Options{MaxRounds: 600, RecordHistory: true})
		}
		base := run(EngineOverrides{})
		push := run(EngineOverrides{Kernel: KernelPush})
		par := run(EngineOverrides{Kernel: KernelParallel})
		dense := run(EngineOverrides{Kernel: KernelDense})
		pull := run(EngineOverrides{Kernel: KernelPull})
		SetEngineOverrides(EngineOverrides{})

		// Default (history on) must be collision-exact, i.e. identical to
		// forced push, including per-round collision counts. The dense
		// carry-save kernel is transmitter-side exact too.
		if !resultsEqual(base, push) || !resultsEqual(base, par) || !resultsEqual(base, dense) {
			t.Fatalf("%s: transmitter-side kernels diverge under RecordHistory", gname)
		}
		assertSameResult(t, gname+"/pull-history", base, pull)
		if len(pull.History) != len(base.History) {
			t.Fatalf("%s: pull history length differs", gname)
		}
		for i := range base.History {
			w, p := base.History[i], pull.History[i]
			if w.Round != p.Round || w.Transmitters != p.Transmitters ||
				w.NewlyInformed != p.NewlyInformed || w.Informed != p.Informed {
				t.Fatalf("%s: pull trajectory differs at round %d: %+v vs %+v", gname, i, w, p)
			}
			if p.Collisions > w.Collisions {
				t.Fatalf("%s round %d: pull collision count %d exceeds exact count %d",
					gname, w.Round, p.Collisions, w.Collisions)
			}
		}
	}
}

// TestPullKernelAgainstReference checks the pull kernel directly against
// the serial push kernel on adversarial rounds: same delivered set (in
// ascending id order — the sorted-output contract the engine relies on),
// and a collision count equal to push's count restricted to uninformed
// receivers. The last round has transmitters but an empty frontier, and
// every round must leave the transmitter marks clear.
func TestPullKernelAgainstReference(t *testing.T) {
	n := 2048
	g := graph.GNPDirected(n, 4e-3, rng.New(91))
	r := rng.New(92)
	for trial := 0; trial <= 30; trial++ {
		informed := NewBitset(n)
		var txs []graph.NodeID
		frac := 0.1 + 0.8*r.Float64()
		if trial == 30 {
			frac = 1 // every node informed: an empty frontier
		}
		for v := 0; v < n; v++ {
			if r.Bernoulli(frac) {
				informed.Set(graph.NodeID(v))
				if r.Bernoulli(0.3) {
					txs = append(txs, graph.NodeID(v))
				}
			}
		}
		st := newDeliveryState(n)
		wantD, _ := st.deliver(g, 1, txs, informed, channelCaps{maxHits: 1})

		// Exact uninformed-side collision count, from first principles.
		wantColl := 0
		for v := 0; v < n; v++ {
			if informed.Get(graph.NodeID(v)) {
				continue
			}
			hits := 0
			for _, u := range g.In(graph.NodeID(v)) {
				for _, x := range txs {
					if x == u {
						hits++
						break
					}
				}
			}
			if hits >= 2 {
				wantColl++
			}
		}

		fr := newFrontierState(n)
		fr.sync(informed, n)
		gotD, gotC := fr.deliver(g, 1, txs, channelCaps{maxHits: 1})
		if !equalNodeSlices(gotD, wantD) {
			t.Fatalf("trial %d: pull delivered %d nodes, push %d", trial, len(gotD), len(wantD))
		}
		for i := 1; i < len(gotD); i++ {
			if gotD[i-1] >= gotD[i] {
				t.Fatalf("trial %d: pull output not strictly ascending at %d", trial, i)
			}
		}
		if gotC != wantColl {
			t.Fatalf("trial %d: pull collisions %d, want uninformed-side count %d", trial, gotC, wantColl)
		}
		if trial == 30 && (len(txs) == 0 || len(fr.list) != 0 || len(gotD) != 0) {
			t.Fatalf("empty-frontier round: %d transmitters, frontier %d, delivered %d", len(txs), len(fr.list), len(gotD))
		}
		if c := fr.txMark.Count(); c != 0 {
			t.Fatalf("trial %d: %d transmitter marks left set", trial, c)
		}
		txs = txs[:0]
	}
}

// TestFrontierRemoveKeepsSync pins the incremental maintenance path: after
// removing delivered nodes the frontier must equal a fresh rebuild.
func TestFrontierRemoveKeepsSync(t *testing.T) {
	n := 300
	informed := NewBitset(n)
	fr := newFrontierState(n)
	fr.sync(informed, n)
	if len(fr.list) != n {
		t.Fatalf("empty informed set: frontier has %d nodes, want %d", len(fr.list), n)
	}
	r := rng.New(5)
	for step := 0; step < 20; step++ {
		var delivered []graph.NodeID
		for v := 0; v < n; v++ {
			if !informed.Get(graph.NodeID(v)) && r.Bernoulli(0.1) {
				delivered = append(delivered, graph.NodeID(v))
				informed.Set(graph.NodeID(v))
			}
		}
		fr.remove(delivered)
		fresh := newFrontierState(n)
		fresh.sync(informed, n)
		if !equalNodeSlices(fr.list, fresh.list) {
			t.Fatalf("step %d: incrementally maintained frontier diverges from rebuild", step)
		}
	}
}

// TestStreamSilentRoundsMatchRoundByRound pins the stream contract at the
// TxSet level: executing a uniform phase round by round (DrawListStream
// each round) and fast-forwarding with StreamSilentRounds must select the
// same (round, node) pairs AND leave the RNG at the same stream position —
// the property that makes the engine's skip path bit-identical.
func TestStreamSilentRoundsMatchRoundByRound(t *testing.T) {
	list := make([]graph.NodeID, 37)
	for i := range list {
		list[i] = graph.NodeID(i)
	}
	for seed := uint64(0); seed < 50; seed++ {
		q := 0.001 + 0.01*float64(seed%7)

		// Path A: execute 400 rounds one by one.
		var a TxSet
		a.Reset()
		ra := rng.New(seed)
		type sel struct{ round, node int }
		var selsA []sel
		for round := 1; round <= 400; round++ {
			a.BeginRound()
			a.DrawListStream(ra, list, q)
			for _, v := range a.Pending() {
				selsA = append(selsA, sel{round, int(v)})
			}
		}

		// Path B: skip silent spans, draw only rounds with selections.
		var b TxSet
		b.Reset()
		rb := rng.New(seed)
		var selsB []sel
		round := 1
		for round <= 400 {
			m := b.StreamSilentRounds(rb, len(list), q, 400-round+1)
			round += m
			if round > 400 {
				break
			}
			b.BeginRound()
			b.DrawListStream(rb, list, q)
			if len(b.Pending()) == 0 {
				t.Fatalf("seed %d: round %d was predicted non-silent but drew nothing", seed, round)
			}
			for _, v := range b.Pending() {
				selsB = append(selsB, sel{round, int(v)})
			}
			round++
		}
		if len(selsA) != len(selsB) {
			t.Fatalf("seed %d: %d selections round-by-round, %d with skipping", seed, len(selsA), len(selsB))
		}
		for i := range selsA {
			if selsA[i] != selsB[i] {
				t.Fatalf("seed %d: selection %d differs: %+v vs %+v", seed, i, selsA[i], selsB[i])
			}
		}
		if ra.Uint64() != rb.Uint64() {
			t.Fatalf("seed %d: RNG stream positions diverge after the run", seed)
		}
	}
}

// TestUninformedSumRecomputedPerSegment guards the mobility pattern:
// graph.Scratch rebuilds the SAME *Digraph in place for every epoch, so
// the pull-kernel cost base must be recomputed at each Run segment —
// pointer identity proves nothing. After the second segment the session's
// sum must equal a bitset scan of the uninformed nodes' in-degrees on the
// rebuilt topology (under the stale-cache bug it would still reflect the
// first epoch's in-degrees). The silent case leaves the source as the only
// informed node; the informing case has the first segment inform many
// nodes, so the CSR base (M() minus the informed list's in-degrees) is
// checked against the scan where the two walk different sides.
func TestUninformedSumRecomputedPerSegment(t *testing.T) {
	for _, c := range []struct {
		name      string
		q         float64
		minFirst  int // informed nodes required after the first segment
		maxRounds int
	}{
		{"silent", 0, 1, 3},
		{"informing", 0.3, 64, 8},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := 256
			sc := graph.NewScratch()
			r := rng.New(31)
			// Heterogeneous radii make in-degrees differ from out-degrees.
			rc := graph.ConnectivityRadius(n)
			spec := graph.GeomSpec{N: n, Radius: rc, RadiusMax: 2 * rc, Torus: true}
			g1, _ := sc.Geometric(spec, r)

			p := &sbern{q: c.q}
			sess := NewBroadcastSession(n, 0, p, rng.New(1))
			sess.Run(g1, Options{MaxRounds: c.maxRounds})
			if got := sess.Informed(); got < c.minFirst || got == n {
				t.Fatalf("first segment informed %d of %d nodes, want at least %d and not all", got, n, c.minFirst)
			}

			spec.Radius, spec.RadiusMax = 3*rc, 4*rc // much denser epoch
			g2, _ := sc.Geometric(spec, r)
			if g1 != g2 {
				t.Fatal("scratch no longer rebuilds in place; this test needs a same-pointer rebuild")
			}
			p.q = 0 // the second segment is silent, so the sum is the segment's base
			sess.Run(g2, Options{MaxRounds: 3})
			var want int64
			forEachUninformed(sess.informed, n, func(v graph.NodeID) {
				want += int64(g2.InDegree(v))
			})
			if sess.uninSum != want {
				t.Fatalf("uninformed in-degree sum %d after in-place rebuild, want %d", sess.uninSum, want)
			}
		})
	}
}

// TestRecordHistoryPinsTransmitterSideCount: with Options.RecordHistory the
// adaptive engine must never hand a round to the pull kernel, so the
// collision totals match the forced-push engine exactly even on a
// late-phase-heavy run where the default engine would choose pull (and
// report the smaller uninformed-side count).
func TestRecordHistoryPinsTransmitterSideCount(t *testing.T) {
	defer SetEngineOverrides(EngineOverrides{})

	g := graph.GNPDirected(1024, 0.03, rng.New(13))
	run := func(opt Options) *Result {
		return RunBroadcast(g, 0, &sbern{q: 0.05}, rng.New(2), opt)
	}
	SetEngineOverrides(EngineOverrides{Kernel: KernelPush})
	push := run(Options{MaxRounds: 800})
	SetEngineOverrides(EngineOverrides{})
	exact := run(Options{MaxRounds: 800, RecordHistory: true})
	loose := run(Options{MaxRounds: 800})
	if exact.Collisions != push.Collisions {
		t.Fatalf("RecordHistory run counted %d collisions, forced push %d",
			exact.Collisions, push.Collisions)
	}
	// The workload runs long past full informing, so the adaptive engine
	// must have taken the pull kernel for the late rounds — visible as a
	// strictly smaller (uninformed-side-only) collision count. Deterministic
	// seeds make this a hard assertion, and it proves the adaptive path is
	// actually exercised.
	if loose.Collisions >= push.Collisions {
		t.Fatalf("adaptive run counted %d collisions vs push's %d: pull kernel never selected",
			loose.Collisions, push.Collisions)
	}
	assertSameResult(t, "exact-collisions", push, exact)
	assertSameResult(t, "adaptive", push, loose)
}
