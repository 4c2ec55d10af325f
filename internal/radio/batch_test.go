package radio

// Equivalence tests for the engine's alternative code paths: the batch
// decision fast path (BatchBroadcaster) and the receiver-sharded parallel
// delivery kernel must be bit-identical to the per-node/serial paths, and
// gossip's one decision path must match a scalar per-node reference.

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// pulse is a minimal BatchBroadcaster obeying the shared-draw contract: the
// transmitter set is drawn once per round in BeginRound; ShouldTransmit and
// AppendTransmitters both read it.
type pulse struct {
	q        float64
	n        int
	r        *rng.RNG
	informed []graph.NodeID
	pending  []graph.NodeID
	txRound  []int
}

func (p *pulse) Name() string { return "pulse" }
func (p *pulse) Begin(n int, src graph.NodeID, r *rng.RNG) {
	p.n = n
	p.r = r
	p.informed = p.informed[:0]
	p.txRound = make([]int, n)
}
func (p *pulse) BeginRound(round int) {
	p.pending = p.pending[:0]
	s := p.r.SkipSample(len(p.informed), p.q)
	for i, ok := s.Next(); ok; i, ok = s.Next() {
		v := p.informed[i]
		p.pending = append(p.pending, v)
		p.txRound[v] = round
	}
}
func (p *pulse) ShouldTransmit(round int, v graph.NodeID) bool { return p.txRound[v] == round }
func (p *pulse) AppendTransmitters(_ int, _ []graph.NodeID, dst []graph.NodeID) []graph.NodeID {
	return append(dst, p.pending...)
}
func (p *pulse) OnInformed(_ int, v graph.NodeID) { p.informed = append(p.informed, v) }
func (p *pulse) Quiesced(int) bool                { return false }

// scalarOnly hides a protocol's AppendTransmitters, so the engine decides
// through its per-node ShouldTransmit loop, the path Decay takes.
type scalarOnly struct{ Broadcaster }

func resultsEqual(a, b *Result) bool {
	if a.Rounds != b.Rounds || a.InformedRound != b.InformedRound ||
		a.Informed != b.Informed || a.TotalTx != b.TotalTx ||
		a.MaxNodeTx != b.MaxNodeTx || a.Collisions != b.Collisions ||
		len(a.PerNodeTx) != len(b.PerNodeTx) || len(a.History) != len(b.History) {
		return false
	}
	for i := range a.PerNodeTx {
		if a.PerNodeTx[i] != b.PerNodeTx[i] {
			return false
		}
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			return false
		}
	}
	return true
}

func TestBatchDecisionPathMatchesScalar(t *testing.T) {
	g := graph.GNPDirected(2000, 0.004, rng.New(11))
	opt := Options{MaxRounds: 400, RecordHistory: true}
	run := func() *Result { return RunBroadcast(g, 0, &pulse{q: 0.2}, rng.New(99), opt) }

	batch := run()
	scalar := RunBroadcast(g, 0, scalarOnly{&pulse{q: 0.2}}, rng.New(99), opt)
	if !resultsEqual(batch, scalar) {
		t.Fatalf("batch and scalar decision paths diverge:\nbatch  %+v\nscalar %+v", batch, scalar)
	}
	// Determinism of the batch path itself.
	if again := run(); !resultsEqual(batch, again) {
		t.Fatal("batch path not deterministic across runs")
	}
}

func TestSerialAndParallelKernelsAgreeAtScale(t *testing.T) {
	// The n >= 10k serial-vs-parallel equivalence check, through the full
	// engine so claim/merge ordering bugs surface in Result fields.
	n := 12000
	g := graph.GNPDirected(n, 2.5e-3, rng.New(21))
	opt := Options{MaxRounds: 60, RecordHistory: true}
	serial := RunBroadcast(g, 0, &pulse{q: 0.3}, rng.New(5), opt)
	for _, workers := range []int{2, 3, 8} {
		po := opt
		po.Parallel = true
		po.Workers = workers
		par := RunBroadcast(g, 0, &pulse{q: 0.3}, rng.New(5), po)
		if !resultsEqual(serial, par) {
			t.Fatalf("parallel kernel (workers=%d) differs from serial at n=%d", workers, n)
		}
	}
}

func TestParallelKernelDirectAtScale(t *testing.T) {
	// Kernel-level comparison on a big round: every receiver shard boundary
	// gets exercised with an adversarially dense transmitter set.
	n := 16384
	g := graph.GNPDirected(n, 1.2e-3, rng.New(31))
	r := rng.New(32)
	informed := NewBitset(n)
	var txs []graph.NodeID
	for v := 0; v < n; v++ {
		if r.Bernoulli(0.5) {
			informed.Set(graph.NodeID(v))
			if r.Bernoulli(0.6) {
				txs = append(txs, graph.NodeID(v))
			}
		}
	}
	st := newDeliveryState(n)
	wantD, wantC := st.deliver(g, 1, txs, informed, channelCaps{maxHits: 1})
	for _, workers := range []int{1, 2, 5, 16} {
		pd := newParallelDeliverer(n, workers)
		gotD, gotC := pd.deliver(g, 1, txs, informed, channelCaps{maxHits: 1})
		if gotC != wantC || !equalNodeSlices(gotD, wantD) {
			t.Fatalf("workers=%d: kernel mismatch (%d/%d delivered, %d/%d collisions)",
				workers, len(gotD), len(wantD), gotC, wantC)
		}
	}
}

func TestScratchSessionsMatchFreshSessions(t *testing.T) {
	// Reusing a Scratch across trials must not leak state between runs.
	sc := NewScratch()
	g1 := graph.GNPDirected(600, 0.01, rng.New(41))
	g2 := graph.GNPDirected(600, 0.02, rng.New(42))
	g3 := graph.GNPDirected(300, 0.05, rng.New(43))
	opt := Options{MaxRounds: 200, RecordHistory: true}
	for i, g := range []*graph.Digraph{g1, g2, g3, g1} {
		fresh := RunBroadcast(g, 0, &pulse{q: 0.15}, rng.New(uint64(i)), opt)
		reused := RunBroadcastWith(sc, g, 0, &pulse{q: 0.15}, rng.New(uint64(i)), opt)
		if !resultsEqual(fresh, reused) {
			t.Fatalf("run %d: scratch-backed session differs from fresh session", i)
		}
	}
}

// pulseGossip is pulse's gossip twin. transmits is its per-node membership
// oracle, which only the scalar reference below asks.
type pulseGossip struct {
	q       float64
	n       int
	r       *rng.RNG
	pending []graph.NodeID
	txRound []int
}

func (p *pulseGossip) Name() string { return "pulse-gossip" }
func (p *pulseGossip) Begin(n int, r *rng.RNG) {
	p.n = n
	p.r = r
	p.txRound = make([]int, n)
}
func (p *pulseGossip) BeginRound(round int) {
	p.pending = p.pending[:0]
	s := p.r.SkipSample(p.n, p.q)
	for i, ok := s.Next(); ok; i, ok = s.Next() {
		p.pending = append(p.pending, graph.NodeID(i))
		p.txRound[i] = round
	}
}
func (p *pulseGossip) transmits(round int, v graph.NodeID) bool { return p.txRound[v] == round }
func (p *pulseGossip) AppendTransmitters(_ int, dst []graph.NodeID) []graph.NodeID {
	return append(dst, p.pending...)
}

// referenceGossip replays p for the given rounds the slow way: it asks p
// node by node whether each node transmits, and applies the §3 join rule
// by brute force — a silent node w whose in-neighbours hold exactly one
// transmitter u joins u's start-of-round rumor set. It returns the
// per-round history, the per-node transmissions and the final knowledge.
func referenceGossip(g *graph.Digraph, p *pulseGossip, r *rng.RNG, rounds int) ([]GossipRoundStat, []int32, [][]bool) {
	n := g.N()
	know := make([][]bool, n)
	for v := range know {
		know[v] = make([]bool, n)
		know[v][v] = true
	}
	perNodeTx := make([]int32, n)
	var hist []GossipRoundStat
	p.Begin(n, r)
	for round := 1; round <= rounds; round++ {
		p.BeginRound(round)
		isTx := make([]bool, n)
		txs := 0
		for v := range isTx {
			if p.transmits(round, graph.NodeID(v)) {
				isTx[v] = true
				perNodeTx[v]++
				txs++
			}
		}
		next := make([][]bool, n)
		var pairs int64
		for w := range next {
			next[w] = slices.Clone(know[w])
			senders, from := 0, graph.NodeID(-1)
			for _, u := range g.In(graph.NodeID(w)) {
				if isTx[u] {
					senders++
					from = u
				}
			}
			if senders == 1 && !isTx[w] {
				for x, k := range know[from] {
					next[w][x] = next[w][x] || k
				}
			}
			for _, k := range next[w] {
				if k {
					pairs++
				}
			}
		}
		know = next
		hist = append(hist, GossipRoundStat{Round: round, Transmitters: txs, KnownPairs: pairs})
	}
	return hist, perNodeTx, know
}

// TestGossipBatchPathMatchesScalar: the gossip engine's one decision path,
// AppendTransmitters, must reproduce the scalar per-node reference round by
// round — transmitter counts, knowledge growth, per-node transmissions and
// who knows which rumor at the end.
func TestGossipBatchPathMatchesScalar(t *testing.T) {
	g := graph.GNPDirected(300, 0.03, rng.New(51))
	const rounds = 300
	sess := NewGossipSession(g.N())
	got := sess.Run(g, &pulseGossip{q: 0.1}, rng.New(7), GossipOptions{MaxRounds: rounds, RecordHistory: true})
	hist, perNodeTx, know := referenceGossip(g, &pulseGossip{q: 0.1}, rng.New(7), rounds)
	if !slices.Equal(got.History, hist) {
		t.Fatalf("gossip history diverges from the scalar reference:\nengine    %v\nreference %v", got.History, hist)
	}
	if !slices.Equal(got.PerNodeTx, perNodeTx) {
		t.Fatal("per-node transmissions diverge from the scalar reference")
	}
	for v := range know {
		for u, k := range know[v] {
			if sess.Knows(graph.NodeID(v), graph.NodeID(u)) != k {
				t.Fatalf("node %d knows rumor %d: engine %v, reference %v", v, u, !k, k)
			}
		}
	}
	if hist[rounds-1].KnownPairs == int64(g.N()) {
		t.Fatal("no rumor ever spread; the comparison is vacuous")
	}
}
