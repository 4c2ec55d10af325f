package radio

// Tests of the word-parallel dense delivery kernel: bit-exact equivalence
// with the serial push kernel at the deliver() level (delivered sets,
// ordering, and exact collision counts), and engine-level invariance under
// the KernelDense forcing across reception models — including the models
// the kernel must *refuse* (SINR capture, per-edge loss), where the forcing
// falls back to the counting kernels. The CI race leg runs this file's
// matrix under GOMAXPROCS ∈ {1, 2, 4}.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestDenseKernelAgainstReference checks the carry-save kernel directly
// against the serial push kernel on adversarial rounds: identical delivered
// sets in strictly ascending order, and — because both kernels are
// transmitter-side exact — identical collision counts, on one dense state
// reused across every round.
func TestDenseKernelAgainstReference(t *testing.T) {
	n := 2048
	g := graph.GNPDirected(n, 4e-3, rng.New(91))
	r := rng.New(92)
	dn := newDenseState(n)
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
		checkDenseRound(t, fmt.Sprintf("trial %d", trial), dn, g, txs, informed)
	}
}

// checkDenseRound runs one round through the dense kernel's four-row gather
// and the serial push kernel, and fails unless both deliver the same ids in
// strictly ascending order with the same collision count.
func checkDenseRound(t *testing.T, label string, dn *denseState, g *graph.Digraph, txs []graph.NodeID, informed Bitset) {
	t.Helper()
	wantD, wantC := newDeliveryState(g.N()).deliver(g, 1, txs, informed, channelCaps{maxHits: 1})
	gotD, gotC := dn.deliver(g, txs, informed)
	if !equalNodeSlices(gotD, wantD) {
		t.Fatalf("%s: dense delivered %v, push %v", label, gotD, wantD)
	}
	for i := 1; i < len(gotD); i++ {
		if gotD[i-1] >= gotD[i] {
			t.Fatalf("%s: dense output not strictly ascending at %d", label, i)
		}
	}
	if gotC != wantC {
		t.Fatalf("%s: dense collisions %d, push exact count %d", label, gotC, wantC)
	}
}

// TestDenseGatherEdges drives the four-row gather where it can break: every
// transmitter count from 0 to 9 (each remainder after the last group of
// four), groups that mix a hub row, degree-1 leaves and an empty row with
// the hub in each of the four lanes (so every lane's tail carries the
// round), and transmitters listed twice, within a group and across groups.
func TestDenseGatherEdges(t *testing.T) {
	const n = 1024
	const hub, leafA, leafB, empty = 0, 1, 2, 3
	r := rng.New(17)
	b := graph.NewBuilder(n)
	for v := 1; v <= 600; v++ {
		b.AddEdge(hub, graph.NodeID(v))
	}
	b.AddEdge(leafA, 700)
	b.AddEdge(leafB, 5) // inside the hub's row: a collision whenever both transmit
	for u := 4; u < n; u++ {
		for d := 1 + r.Intn(40); d > 0; d-- {
			if v := graph.NodeID(r.Intn(n)); v != graph.NodeID(u) {
				b.AddEdge(graph.NodeID(u), v)
			}
		}
	}
	g := b.Build()
	if g.OutDegree(hub) < 500 || g.OutDegree(leafA) != 1 || g.OutDegree(leafB) != 1 || g.OutDegree(empty) != 0 {
		t.Fatal("test graph lost its hub, leaves or empty row")
	}
	informed := NewBitset(n)
	for v := 0; v < n; v++ {
		if r.Bernoulli(0.3) {
			informed.Set(graph.NodeID(v))
		}
	}
	// Rows of random length 1–40, so the lockstep walk and the tails both
	// carry marks.
	var rows []graph.NodeID
	for _, v := range r.Perm(n - 4)[:9] {
		rows = append(rows, graph.NodeID(v+4))
	}
	dn := newDenseState(n)
	for c := 0; c <= 9; c++ {
		checkDenseRound(t, fmt.Sprintf("%d transmitters", c), dn, g, rows[:c], informed)
	}
	mixed := []graph.NodeID{hub, leafA, empty, rows[0]}
	for lane := 0; lane < 4; lane++ {
		group := slices.Clone(mixed)
		group[0], group[lane] = group[lane], group[0]
		checkDenseRound(t, fmt.Sprintf("mixed group, hub in lane %d", lane), dn, g, group, informed)
		checkDenseRound(t, fmt.Sprintf("mixed group and a tail, hub in lane %d", lane), dn, g,
			append(append(slices.Clone(rows[1:5]), group...), leafB, empty), informed)
	}
	for _, txs := range [][]graph.NodeID{
		{rows[0], rows[1], rows[0], rows[2]},
		{hub, hub, leafA, empty},
		{rows[0], rows[1], rows[2], rows[3], rows[4], rows[0]},
		{leafA, rows[1], rows[2], rows[3], leafA},
	} {
		checkDenseRound(t, fmt.Sprintf("repeated transmitter %v", txs), dn, g, txs, informed)
	}
}

// FuzzDenseKernel checks the four-row gather against the serial push kernel on G(n, p) plus a hub: node 0's row reaches every
// other node, and node 0 transmits at a seed-chosen position among k
// transmitters drawn with replacement. n is 1 + n16 mod 1200; a sparse p
// gives empty and degree-1 rows beside the hub.
func FuzzDenseKernel(f *testing.F) {
	f.Add(uint64(4), uint16(699), 0.001, uint8(9))
	f.Add(uint64(2), uint16(299), 0.05, uint8(8))
	f.Add(uint64(3), uint16(0), 0.5, uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, n16 uint16, p float64, k uint8) {
		if !(p >= 0 && p <= 1) {
			t.Skip()
		}
		n := 1 + int(n16)%1200
		r := rng.New(seed)
		base := graph.GNPDirected(n, p, r)
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for _, v := range base.Out(graph.NodeID(u)) {
				b.AddEdge(graph.NodeID(u), v)
			}
		}
		for v := 1; v < n; v++ {
			b.AddEdge(0, graph.NodeID(v))
		}
		g := b.Build()
		informed := NewBitset(n)
		for v := 0; v < n; v++ {
			if r.Bernoulli(0.3) {
				informed.Set(graph.NodeID(v))
			}
		}
		txs := make([]graph.NodeID, k)
		for i := range txs {
			txs[i] = graph.NodeID(r.Intn(n))
		}
		if k > 0 {
			txs[r.Intn(int(k))] = 0
		}
		checkDenseRound(t, "fuzz", newDenseState(n), g, txs, informed)
	})
}

// TestDensePlanesClearBetweenRounds pins the zero-state contract: the
// resolution pass must leave both words of every hit pair empty, so
// back-to-back rounds never see stale hits. A stale bit would surface as a
// phantom collision in the next round.
func TestDensePlanesClearBetweenRounds(t *testing.T) {
	n := 512
	g := graph.GNPDirected(n, 0.05, rng.New(7))
	dn := newDenseState(n)
	informed := NewBitset(n)
	txs := []graph.NodeID{1, 2, 3, 4, 5, 6, 7, 8}
	for round := 0; round < 5; round++ {
		dn.deliver(g, txs, informed)
		for wi, h := range dn.hits {
			if h.once != 0 || h.twice != 0 {
				t.Fatalf("round %d: stale bits left in hit pair %d: once %#x, twice %#x", round, wi, h.once, h.twice)
			}
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
// the dense kernel's popcount of its twice words is the same
// transmitter-side exact count the push kernel maintains, so KernelDense
// stays legal under Options.RecordHistory.
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

// TestChooseKernel pins the per-round kernel policy at its boundaries. The
// dense rows sit exactly at ⌈n/64⌉, so restoring an admission threshold of
// n (or any other) fails them; the pull rows sit exactly where the pull
// estimate plus |tx| meets the out-degree sum. The channel rows take their
// dense flag from the real models through denseOK.
func TestChooseKernel(t *testing.T) {
	denseFor := func(m ReceptionModel) bool { return denseOK(m.resolve(7)) }
	binary, lossy := denseFor(Binary()), denseFor(LossyChannel(0.25))
	sinr, fade := denseFor(SINRThreshold(0.5, 0.1)), denseFor(Fade(0.2))
	const n = 262144 // ⌈n/64⌉ = 4096
	type row struct {
		name                                             string
		forced                                           DeliveryKernel
		tx                                               int
		outSum, uninSum                                  int64
		n                                                int
		trackUnin, inRows, materialized, parallel, dense bool
		want                                             DeliveryKernel
	}
	auto := func(name string, tx int, outSum, uninSum int64, nn int, track, in, mat, par, dense bool, want DeliveryKernel) row {
		return row{name, KernelAuto, tx, outSum, uninSum, nn, track, in, mat, par, dense, want}
	}
	cases := []row{
		// The dense admission boundary, with and without pull tracking.
		auto("push just below n/64", 40, 4095, 1<<40, n, true, true, true, false, binary, KernelPush),
		auto("dense at n/64", 40, 4096, 1<<40, n, true, true, true, false, binary, KernelDense),
		auto("push below n/64 untracked", 40, 4095, 0, n, false, true, true, false, binary, KernelPush),
		auto("dense at n/64 untracked", 40, 4096, 0, n, false, true, true, false, binary, KernelDense),
		auto("dense between n/64 and n", 400, 100000, 1<<40, n, true, true, true, false, binary, KernelDense),
		auto("dense at n", 400, n, 1<<40, n, true, true, true, false, binary, KernelDense),
		auto("fade rides dense", 40, 4096, 0, n, false, true, true, false, fade, KernelDense),
		// ⌈n/64⌉ rounds up when n is not a multiple of 64.
		auto("push below ceil(1000/64)", 3, 15, 0, 1000, false, true, true, false, binary, KernelPush),
		auto("dense at ceil(1000/64)", 3, 16, 0, 1000, false, true, true, false, binary, KernelDense),
		auto("dense at one word", 1, 1, 0, 64, false, true, true, false, binary, KernelDense),
		auto("no transmitters", 0, 0, 0, n, true, true, true, false, binary, KernelPush),

		// Pull wins first whenever its estimate plus |tx| undercuts outSum.
		auto("pull undercuts dense", 100, 500000, 499899, n, true, true, true, false, binary, KernelPull),
		auto("tie is not pull", 100, 500000, 499900, n, true, true, true, false, binary, KernelDense),
		auto("tie below n/64 is push", 10, 4000, 3990, n, true, true, true, false, binary, KernelPush),
		auto("pull on a lossy channel", 10, 4000, 3989, n, true, true, true, false, lossy, KernelPull),
		auto("pull on an implicit graph", 10, 4000, 3989, n, true, true, false, false, binary, KernelPull),
		auto("pull under Parallel", 10, 4000, 3989, n, true, true, true, true, binary, KernelPull),
		auto("no pull untracked", 10, 500000, 0, n, false, true, true, false, lossy, KernelPush),

		// Never dense on an implicit graph, a non-binary-decidable channel,
		// or under Options.Parallel; never parallel on an implicit graph.
		auto("implicit graph", 400, 1<<30, 1<<40, n, true, true, false, false, binary, KernelPush),
		auto("implicit graph without in-rows", 400, 1<<30, 0, n, false, false, false, false, binary, KernelPush),
		auto("lossy channel", 400, 1<<30, 1<<40, n, true, true, true, false, lossy, KernelPush),
		auto("sinr channel", 400, 1<<30, 1<<40, n, true, true, true, false, sinr, KernelPush),
		auto("parallel", 400, 1<<30, 1<<40, n, true, true, true, true, binary, KernelParallel),
		auto("parallel on an implicit graph", 400, 1<<30, 1<<40, n, true, true, false, true, binary, KernelPush),

		// Every forcing the graph and channel can serve wins over the cost
		// model; the others fall back to push.
		{"forced push", KernelPush, 400, 1 << 30, 0, n, true, true, true, false, binary, KernelPush},
		{"forced push under Parallel", KernelPush, 400, 1 << 30, 0, n, false, true, true, true, binary, KernelParallel},
		{"forced parallel", KernelParallel, 400, 1 << 30, 0, n, false, true, true, true, binary, KernelParallel},
		{"forced parallel on an implicit graph", KernelParallel, 400, 1 << 30, 0, n, false, true, false, true, binary, KernelPush},
		{"forced pull", KernelPull, 400, 1, 1 << 40, n, false, true, true, false, binary, KernelPull},
		{"forced pull without transmitters", KernelPull, 0, 0, 0, n, false, true, true, false, binary, KernelPull},
		{"forced pull on implicit in-rows", KernelPull, 400, 1, 1 << 40, n, false, true, false, false, binary, KernelPull},
		{"forced pull without in-rows", KernelPull, 400, 1, 1 << 40, n, false, false, false, false, binary, KernelPush},
		{"forced pull without in-rows under Parallel", KernelPull, 400, 1, 1 << 40, n, false, false, false, true, binary, KernelPush},
		{"forced dense below n/64", KernelDense, 1, 1, 0, n, true, true, true, false, binary, KernelDense},
		{"forced dense on an implicit graph", KernelDense, 1, 1, 0, n, false, false, false, false, binary, KernelPush},
		{"forced dense falls back on sinr", KernelDense, 400, 1 << 30, 0, n, false, true, true, false, sinr, KernelPush},
		{"forced dense falls back under Parallel", KernelDense, 400, 1 << 30, 0, n, false, true, true, true, lossy, KernelParallel},
	}
	for _, c := range cases {
		got := chooseKernel(c.forced, c.tx, c.outSum, c.uninSum, c.n, c.trackUnin, c.inRows, c.materialized, c.parallel, c.dense)
		if got != c.want {
			t.Errorf("%s: chooseKernel = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestPriceLimitSettlesKernelChoice pins the bound that lets outDegSum stop
// early: on CSR and ImplicitGeom graphs and random transmitter lists, with
// the pull estimate uninSum + |tx| and the dense threshold ⌈n/64⌉ each set
// one below, at and one above every prefix sum of the out-degrees, the
// kernel chosen from the bounded sum equals the kernel chosen from the full
// sum, under every combination of pull tracking, dense capability and
// Options.Parallel. It also pins what outDegSum returns: the first prefix
// sum above the limit, or the full sum when none is.
func TestPriceLimitSettlesKernelChoice(t *testing.T) {
	const n = 512
	r := rng.New(29)
	spec := graph.GeomSpec{N: n, Radius: 2 * graph.ConnectivityRadius(n), Torus: true}
	graphs := []struct {
		name string
		g    graph.InRows
	}{
		{"gnp", graph.GNPDirected(n, 0.02, r)},
		{"rgg", graph.RGG(n, 2*graph.ConnectivityRadius(n), true, r)},
		{"implicit-geom", graph.NewImplicitGeom(spec, r)},
	}
	bools := []bool{false, true}
	for _, gc := range graphs {
		_, materialized := gc.g.(*graph.Digraph)
		for trial := 0; trial < 6; trial++ {
			txs := make([]graph.NodeID, 1+r.Intn(12))
			for i := range txs {
				txs[i] = graph.NodeID(r.Intn(n))
			}
			prefix := []int64{0}
			for _, u := range txs {
				prefix = append(prefix, prefix[len(prefix)-1]+int64(gc.g.OutDegree(u)))
			}
			full := prefix[len(prefix)-1]
			var targets []int64
			for _, s := range prefix {
				for d := int64(-1); d <= 1; d++ {
					if s+d >= 0 && !slices.Contains(targets, s+d) {
						targets = append(targets, s+d)
					}
				}
			}
			tx := int64(len(txs))
			for _, pullAt := range targets {
				uninSum := max(pullAt-tx, 0)
				for _, denseAt := range targets {
					if denseAt < 1 {
						continue
					}
					nn := int(64*denseAt) - r.Intn(64) // ⌈nn/64⌉ = denseAt
					for _, track := range bools {
						lim := priceLimit(nn, len(txs), uninSum, track)
						bounded := outDegSum(gc.g, txs, lim)
						want := full
						for _, s := range prefix {
							if s > lim {
								want = s
								break
							}
						}
						if bounded != want {
							t.Fatalf("%s: outDegSum with limit %d = %d, want %d (prefix sums %v)",
								gc.name, lim, bounded, want, prefix)
						}
						for _, dense := range bools {
							for _, parallel := range bools {
								k := chooseKernel(KernelAuto, len(txs), bounded, uninSum, nn, track, true, materialized, parallel, dense)
								kFull := chooseKernel(KernelAuto, len(txs), full, uninSum, nn, track, true, materialized, parallel, dense)
								if k != kFull {
									t.Fatalf("%s: tx %d, full sum %d, uninSum %d, n %d, track %v, dense %v, parallel %v: bounded sum %d chooses %d, full sum chooses %d",
										gc.name, tx, full, uninSum, nn, track, dense, parallel, bounded, k, kFull)
								}
							}
						}
					}
				}
			}
		}
	}
}
