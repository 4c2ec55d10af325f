package radio

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// scripted is a test Broadcaster that transmits exactly per plan.
type scripted struct {
	plan      map[int][]graph.NodeID
	lastRound int
	informed  map[graph.NodeID]int // node -> round informed (for assertions)
}

func newScripted(plan map[int][]graph.NodeID) *scripted {
	last := 0
	for r := range plan {
		if r > last {
			last = r
		}
	}
	return &scripted{plan: plan, lastRound: last}
}

func (s *scripted) Name() string { return "scripted" }
func (s *scripted) Begin(n int, src graph.NodeID, r *rng.RNG) {
	s.informed = make(map[graph.NodeID]int)
}
func (s *scripted) BeginRound(int) {}
func (s *scripted) ShouldTransmit(round int, v graph.NodeID) bool {
	for _, u := range s.plan[round] {
		if u == v {
			return true
		}
	}
	return false
}
func (s *scripted) OnInformed(round int, v graph.NodeID) {
	if _, dup := s.informed[v]; dup {
		panic("OnInformed called twice for same node")
	}
	s.informed[v] = round
}
func (s *scripted) Quiesced(round int) bool { return round >= s.lastRound }

// flood transmits every round from every informed node.
type flood struct{}

func (flood) Name() string                          { return "flood" }
func (flood) Begin(int, graph.NodeID, *rng.RNG)     {}
func (flood) BeginRound(int)                        {}
func (flood) ShouldTransmit(int, graph.NodeID) bool { return true }
func (flood) OnInformed(int, graph.NodeID)          {}
func (flood) Quiesced(int) bool                     { return false }

// coin transmits with fixed probability q from every informed node.
type coin struct {
	q float64
	r *rng.RNG
}

func (c *coin) Name() string                              { return "coin" }
func (c *coin) Begin(n int, src graph.NodeID, r *rng.RNG) { c.r = r }
func (c *coin) BeginRound(int)                            {}
func (c *coin) ShouldTransmit(int, graph.NodeID) bool     { return c.r.Bernoulli(c.q) }
func (c *coin) OnInformed(int, graph.NodeID)              {}
func (c *coin) Quiesced(int) bool                         { return false }

func TestSingleTransmitterInformsNeighbours(t *testing.T) {
	// 0 -> {1,2}; only node 0 transmits in round 1.
	g := graph.FromEdges(3, [][2]graph.NodeID{{0, 1}, {0, 2}})
	p := newScripted(map[int][]graph.NodeID{1: {0}})
	res := RunBroadcast(g, 0, p, rng.New(1), Options{MaxRounds: 5})
	if !res.Completed() || res.InformedRound != 1 {
		t.Fatalf("completion: %+v", res)
	}
	if res.TotalTx != 1 || res.PerNodeTx[0] != 1 {
		t.Fatalf("tx accounting: %+v", res)
	}
	if p.informed[1] != 1 || p.informed[2] != 1 {
		t.Fatalf("informing rounds: %v", p.informed)
	}
}

func TestCollisionBlocksReception(t *testing.T) {
	// 0 -> 1, 0 -> 2, 2 -> 3, and 1,2 -> 4. Round 1: 0 informs 1,2.
	// Round 2: both 1 and 2 transmit -> 4 hears a collision, but 3 (hearing
	// only 2) is informed.
	g := graph.FromEdges(5, [][2]graph.NodeID{{0, 1}, {0, 2}, {2, 3}, {1, 4}, {2, 4}})
	p := newScripted(map[int][]graph.NodeID{1: {0}, 2: {1, 2}})
	res := RunBroadcast(g, 0, p, rng.New(1), Options{MaxRounds: 5, RecordHistory: true})
	if p.informed[3] != 2 {
		t.Fatalf("node 3 informed at %d, want 2", p.informed[3])
	}
	if _, ok := p.informed[4]; ok {
		t.Fatal("node 4 informed despite collision")
	}
	if res.Collisions != 1 {
		t.Fatalf("collision count %d, want 1", res.Collisions)
	}
	if res.Informed != 4 {
		t.Fatalf("informed %d, want 4", res.Informed)
	}
	// History should show the round-2 collision.
	if res.History[2].Collisions != 1 || res.History[2].NewlyInformed != 1 {
		t.Fatalf("history round 2: %+v", res.History[2])
	}
}

func TestAlreadyInformedNotRedelivered(t *testing.T) {
	// Cycle 0 <-> 1: node 1 transmitting back to 0 must not re-inform 0.
	g := graph.FromEdges(2, [][2]graph.NodeID{{0, 1}, {1, 0}})
	p := newScripted(map[int][]graph.NodeID{1: {0}, 2: {1}})
	res := RunBroadcast(g, 0, p, rng.New(1), Options{MaxRounds: 3})
	if res.Informed != 2 {
		t.Fatalf("informed %d", res.Informed)
	}
	if p.informed[0] != 0 {
		t.Fatalf("source informing round %d, want 0", p.informed[0])
	}
}

func TestFloodOnPathInformsInDHops(t *testing.T) {
	// On a directed path, flooding has no collisions and takes exactly D rounds.
	n := 10
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g := b.Build()
	res := RunBroadcast(g, 0, flood{}, rng.New(1), Options{MaxRounds: 50, StopWhenInformed: true})
	if res.InformedRound != n-1 {
		t.Fatalf("path flood informed at round %d, want %d", res.InformedRound, n-1)
	}
	if res.Collisions != 0 {
		t.Fatalf("collisions on a directed path: %d", res.Collisions)
	}
}

func TestFloodOnSymmetricPathCollides(t *testing.T) {
	// On a symmetric path flooding deadlocks in the middle: after round 2,
	// each frontier node's unheard neighbour hears two transmitters.
	g := graph.Path(7)
	res := RunBroadcast(g, 3, flood{}, rng.New(1), Options{MaxRounds: 30})
	// Round 1: 3 informs 2 and 4. Round 2 onwards: 2,3,4 all transmit;
	// node 1 hears only 2 (just 2 is its neighbour among transmitters)...
	// Actually node 1 hears 2 only -> informed. The stall happens for the
	// star; on a path flooding still completes. Just assert no crash and
	// sensible accounting.
	if res.TotalTx == 0 || res.Rounds != 30 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestFloodOnStarNeverCompletes(t *testing.T) {
	// Star centre 0 with 5 leaves: round 1 informs all leaves; from round 2
	// every node transmits forever, so nothing changes, but with every node
	// informed the run completes at round 1. Instead root the broadcast at a
	// leaf: leaf informs centre, centre informs others... then all leaves
	// collide at the centre forever, but centre already informed everyone.
	// The genuinely stuck case is two leaves informed first: build it via
	// a custom graph where two leaves hear the source.
	//   s -> l1, s -> l2, l1 -> c, l2 -> c (c never hears s directly)
	g := graph.FromEdges(4, [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	res := RunBroadcast(g, 0, flood{}, rng.New(1), Options{MaxRounds: 40})
	if res.Completed() {
		t.Fatal("flooding should livelock: l1 and l2 always collide at c")
	}
	if res.Informed != 3 {
		t.Fatalf("informed %d, want 3", res.Informed)
	}
	if res.Collisions != 39 {
		// rounds 2..40 each have exactly one collision at node 3
		t.Fatalf("collisions %d, want 39", res.Collisions)
	}
}

func TestDeterminism(t *testing.T) {
	g := graph.GNPDirected(200, 0.05, rng.New(9))
	run := func() *Result {
		return RunBroadcast(g, 0, &coin{q: 0.2}, rng.New(42), Options{MaxRounds: 200})
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds || a.TotalTx != b.TotalTx || a.Informed != b.Informed || a.InformedRound != b.InformedRound {
		t.Fatalf("nondeterministic engine: %+v vs %+v", a, b)
	}
	for i := range a.PerNodeTx {
		if a.PerNodeTx[i] != b.PerNodeTx[i] {
			t.Fatalf("per-node tx differ at %d", i)
		}
	}
}

func TestStopWhenInformed(t *testing.T) {
	g := graph.Complete(10)
	p := newScripted(map[int][]graph.NodeID{1: {0}})
	res := RunBroadcast(g, 0, p, rng.New(1), Options{MaxRounds: 10, StopWhenInformed: true})
	if res.InformedRound != 1 || res.Rounds != 1 {
		t.Fatalf("informed stop: %+v", res)
	}
	// On a 1-node graph the source alone informs every node at round 0.
	res0 := RunBroadcast(graph.Complete(1), 0, newScripted(nil), rng.New(1), Options{MaxRounds: 10, StopWhenInformed: true})
	if res0.InformedRound != 0 || res0.Rounds != 0 {
		t.Fatalf("round-0 stop: %+v", res0)
	}
}

func TestQuiescedStopsEngine(t *testing.T) {
	g := graph.Complete(4)
	p := newScripted(map[int][]graph.NodeID{1: {0}}) // quiesces after round 1
	res := RunBroadcast(g, 0, p, rng.New(1), Options{MaxRounds: 100})
	if res.Rounds != 1 {
		t.Fatalf("engine ran %d rounds after quiescence", res.Rounds)
	}
}

func TestMaxRoundsCap(t *testing.T) {
	g := graph.FromEdges(2, [][2]graph.NodeID{}) // no edges: never completes
	res := RunBroadcast(g, 0, flood{}, rng.New(1), Options{MaxRounds: 7})
	if res.Rounds != 7 || res.Completed() {
		t.Fatalf("cap: %+v", res)
	}
}

func TestInvalidOptionsPanic(t *testing.T) {
	g := graph.Complete(2)
	for name, opt := range map[string]Options{
		"no max rounds": {},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			RunBroadcast(g, 0, flood{}, rng.New(1), opt)
		}()
	}
}

func TestSourceOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	RunBroadcast(graph.Complete(2), 5, flood{}, rng.New(1), Options{MaxRounds: 1})
}

func TestParallelMatchesSerialKernel(t *testing.T) {
	r := rng.New(4)
	g := graph.GNPDirected(800, 0.01, r)
	serial := newDeliveryState(g.N())
	par := newParallelDeliverer(g.N(), 4)
	for trial := 0; trial < 30; trial++ {
		informed := NewBitset(g.N())
		var txs []graph.NodeID
		for v := 0; v < g.N(); v++ {
			if r.Bernoulli(0.3) {
				informed.Set(graph.NodeID(v))
				if r.Bernoulli(0.5) {
					txs = append(txs, graph.NodeID(v))
				}
			}
		}
		ds, cs := serial.deliver(g, 1, txs, informed, channelCaps{maxHits: 1})
		dp, cp := par.deliver(g, 1, txs, informed, channelCaps{maxHits: 1})
		if cs != cp {
			t.Fatalf("trial %d: collision counts %d vs %d", trial, cs, cp)
		}
		if len(ds) != len(dp) {
			t.Fatalf("trial %d: delivered %d vs %d", trial, len(ds), len(dp))
		}
		for i := range ds {
			if ds[i] != dp[i] {
				t.Fatalf("trial %d: delivered sets differ at %d", trial, i)
			}
		}
	}
}

func TestParallelEngineMatchesSerialEngine(t *testing.T) {
	g := graph.GNPDirected(500, 0.02, rng.New(5))
	opts := Options{MaxRounds: 300}
	optp := opts
	optp.Parallel = true
	optp.Workers = 3
	a := RunBroadcast(g, 0, &coin{q: 0.1}, rng.New(77), opts)
	b := RunBroadcast(g, 0, &coin{q: 0.1}, rng.New(77), optp)
	if a.Rounds != b.Rounds || a.TotalTx != b.TotalTx || a.Informed != b.Informed ||
		a.InformedRound != b.InformedRound || a.Collisions != b.Collisions {
		t.Fatalf("parallel engine diverged:\nserial   %+v\nparallel %+v", a, b)
	}
}

// --- gossip engine tests ---

// tdma transmits node (round-1) mod n each round: collision-free schedule.
type tdma struct{ n int }

func (p *tdma) Name() string            { return "tdma" }
func (p *tdma) Begin(n int, r *rng.RNG) { p.n = n }
func (p *tdma) BeginRound(int)          {}
func (p *tdma) AppendTransmitters(round int, dst []graph.NodeID) []graph.NodeID {
	return append(dst, graph.NodeID((round-1)%p.n))
}

// gossipCoin transmits with probability q, one Bernoulli draw per node in
// increasing node order.
type gossipCoin struct {
	q float64
	n int
	r *rng.RNG
}

func (p *gossipCoin) Name() string            { return "gossip-coin" }
func (p *gossipCoin) Begin(n int, r *rng.RNG) { p.n, p.r = n, r }
func (p *gossipCoin) BeginRound(int)          {}
func (p *gossipCoin) AppendTransmitters(_ int, dst []graph.NodeID) []graph.NodeID {
	for v := 0; v < p.n; v++ {
		if p.r.Bernoulli(p.q) {
			dst = append(dst, graph.NodeID(v))
		}
	}
	return dst
}

func TestGossipTDMACompleteGraph(t *testing.T) {
	// TDMA on K_n: round r spreads node (r-1)'s current set to everyone.
	// Round 1: node 0's rumor reaches all. Round 2: node 1 sends {0's, 1's}
	// ... wait: node 1 already knows rumor 0 and its own. After round 2
	// everyone knows rumors {0,1}. Completion after n rounds.
	n := 6
	g := graph.Complete(n)
	res := RunGossip(g, &tdma{}, rng.New(1), GossipOptions{MaxRounds: 3 * n, StopWhenComplete: true})
	if !res.Completed() {
		t.Fatalf("TDMA gossip incomplete: %+v", res)
	}
	if res.CompleteRound != n {
		t.Fatalf("TDMA completion round %d, want %d", res.CompleteRound, n)
	}
	if res.TotalTx != int64(n) {
		t.Fatalf("TotalTx %d, want %d", res.TotalTx, n)
	}
}

// TestGossipCompleteRoundRecordedOnce: one sender per round on K4 completes
// gossip in round 4, and the session reports round 4 from then on, whether
// the segment stops there, runs its full schedule, or comes after the
// segment that completed. A later segment of a complete session runs its
// full schedule unless it stops at completion.
func TestGossipCompleteRoundRecordedOnce(t *testing.T) {
	for _, tc := range []struct {
		name       string
		segments   []GossipOptions
		wantRounds int // rounds the last segment executed
	}{
		{"stop at completion", []GossipOptions{{MaxRounds: 50, StopWhenComplete: true}}, 4},
		{"full schedule", []GossipOptions{{MaxRounds: 50}}, 50},
		{"second segment", []GossipOptions{{MaxRounds: 20}, {MaxRounds: 5}}, 5},
		{"second segment, stop at completion",
			[]GossipOptions{{MaxRounds: 20}, {MaxRounds: 5, StopWhenComplete: true}}, 0},
	} {
		sess := NewGossipSession(4)
		var res *GossipResult
		for _, opt := range tc.segments {
			res = sess.Run(graph.Complete(4), &tdma{}, rng.New(1), opt)
		}
		if res.CompleteRound != 4 || res.Rounds != tc.wantRounds {
			t.Errorf("%s: CompleteRound %d after %d rounds, want 4 after %d",
				tc.name, res.CompleteRound, res.Rounds, tc.wantRounds)
		}
	}
}

func TestGossipHalfDuplexBlocksTransmitterReception(t *testing.T) {
	// Two nodes, both transmit every round: under half-duplex neither ever
	// receives; under full duplex each receives the other's rumor in round 1
	// (each has exactly one in-neighbour, so no collision).
	g := graph.Complete(2)
	always := &gossipCoin{q: 1}
	res := RunGossip(g, always, rng.New(1), GossipOptions{MaxRounds: 10, StopWhenComplete: true})
	if res.Completed() {
		t.Fatal("half-duplex simultaneous transmitters should never exchange")
	}
	res2 := RunGossip(g, &gossipCoin{q: 1}, rng.New(1), GossipOptions{MaxRounds: 10, FullDuplex: true, StopWhenComplete: true})
	if !res2.Completed() || res2.CompleteRound != 1 {
		t.Fatalf("full duplex exchange: %+v", res2)
	}
}

func TestGossipNoSameRoundRelay(t *testing.T) {
	// Path 0 -> 1 -> 2 (directed). Round 1: nodes 0 and 1 transmit
	// (full duplex so node 1 can receive while transmitting).
	// Node 1 receives rumor 0; node 2 must receive only node 1's
	// START-of-round set {1}, not rumor 0.
	g := graph.FromEdges(3, [][2]graph.NodeID{{0, 1}, {1, 2}})
	p := newScriptedGossip(map[int][]graph.NodeID{1: {0, 1}, 2: {1}})
	res := RunGossip(g, p, rng.New(1), GossipOptions{MaxRounds: 2, FullDuplex: true})
	// After round 1: know(1) = {0,1}, know(2) = {1,2}.
	// After round 2 (node 1 sends {0,1}): know(2) = {0,1,2}.
	if res.KnownPairs != 1+2+3 {
		t.Fatalf("KnownPairs %d, want 6", res.KnownPairs)
	}
}

type scriptedGossip struct {
	plan map[int][]graph.NodeID
}

func newScriptedGossip(plan map[int][]graph.NodeID) *scriptedGossip {
	return &scriptedGossip{plan: plan}
}
func (s *scriptedGossip) Name() string        { return "scripted-gossip" }
func (s *scriptedGossip) Begin(int, *rng.RNG) {}
func (s *scriptedGossip) BeginRound(int)      {}
func (s *scriptedGossip) AppendTransmitters(round int, dst []graph.NodeID) []graph.NodeID {
	return append(dst, s.plan[round]...)
}

func TestGossipCoinCompletesOnGNP(t *testing.T) {
	n := 64
	g := graph.GNPSymmetric(n, 0.2, rng.New(6))
	d := 0.2 * float64(n)
	res := RunGossip(g, &gossipCoin{q: 1 / d}, rng.New(7), GossipOptions{MaxRounds: 20000, StopWhenComplete: true})
	if !res.Completed() {
		t.Fatalf("gossip did not complete in %d rounds (known %d/%d)", res.Rounds, res.KnownPairs, n*n)
	}
}

func TestGossipMonotoneKnowledge(t *testing.T) {
	g := graph.GNPSymmetric(40, 0.3, rng.New(8))
	res := RunGossip(g, &gossipCoin{q: 0.1}, rng.New(9), GossipOptions{MaxRounds: 500, RecordHistory: true, StopWhenComplete: true})
	prev := int64(0)
	for _, h := range res.History {
		if h.KnownPairs < prev {
			t.Fatalf("knowledge decreased at round %d", h.Round)
		}
		prev = h.KnownPairs
	}
	if prev < int64(40) {
		t.Fatal("knowledge below initial state")
	}
}

func TestRumorSetUnion(t *testing.T) {
	a := newRumorSet(130)
	b := newRumorSet(130)
	a.add(0)
	b.add(64)
	b.add(129)
	if added := a.union(b); added != 2 {
		t.Fatalf("union added %d, want 2", added)
	}
	if added := a.union(b); added != 0 {
		t.Fatalf("re-union added %d, want 0", added)
	}
	c := a.clone()
	c.add(5)
	if added := a.union(c); added != 1 {
		t.Fatalf("clone isolation broken: %d", added)
	}
}

func TestGossipDeterminism(t *testing.T) {
	g := graph.GNPSymmetric(50, 0.2, rng.New(10))
	run := func() *GossipResult {
		return RunGossip(g, &gossipCoin{q: 0.15}, rng.New(11), GossipOptions{MaxRounds: 1000, StopWhenComplete: true})
	}
	a, b := run(), run()
	if a.CompleteRound != b.CompleteRound || a.TotalTx != b.TotalTx {
		t.Fatalf("gossip nondeterministic: %+v vs %+v", a, b)
	}
}

func BenchmarkBroadcastRoundGNP(b *testing.B) {
	g := graph.GNPDirected(10000, 0.002, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunBroadcast(g, 0, &coin{q: 0.05}, rng.New(uint64(i)), Options{MaxRounds: 50})
	}
}

func BenchmarkGossipRoundGNP(b *testing.B) {
	g := graph.GNPSymmetric(1000, 0.02, rng.New(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunGossip(g, &gossipCoin{q: 0.05}, rng.New(uint64(i)), GossipOptions{MaxRounds: 100})
	}
}

// --- broadcast session, fading, jamming ---

func TestBroadcastSessionEquivalentToRunBroadcast(t *testing.T) {
	g := graph.GNPDirected(300, 0.03, rng.New(40))
	a := RunBroadcast(g, 0, &coin{q: 0.1}, rng.New(41), Options{MaxRounds: 200})
	s := NewBroadcastSession(g.N(), 0, &coin{q: 0.1}, rng.New(41))
	b := s.Run(g, Options{MaxRounds: 200})
	if a.Rounds != b.Rounds || a.TotalTx != b.TotalTx || a.Informed != b.Informed ||
		a.InformedRound != b.InformedRound || a.Collisions != b.Collisions {
		t.Fatalf("session diverged from RunBroadcast:\n%+v\n%+v", a, b)
	}
}

func TestBroadcastSessionAcrossTopologies(t *testing.T) {
	// Two disjoint directed halves: on g1 the message can only cover the
	// first half; after re-wiring to g2 (which connects the halves) the
	// same session finishes. Static runs on either graph alone cannot.
	n := 8
	b1 := graph.NewBuilder(n)
	for i := 0; i < 3; i++ {
		b1.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g1 := b1.Build() // path over 0..3 only; nodes 4..7 isolated
	b2 := graph.NewBuilder(n)
	for i := 3; i < 7; i++ {
		b2.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g2 := b2.Build() // path over 3..7 only

	s := NewBroadcastSession(n, 0, flood{}, rng.New(1))
	r1 := s.Run(g1, Options{MaxRounds: 10})
	if r1.Informed != 4 {
		t.Fatalf("after g1: informed %d, want 4", r1.Informed)
	}
	if r1.Completed() {
		t.Fatal("cannot be complete on g1")
	}
	r2 := s.Run(g2, Options{MaxRounds: 10, StopWhenInformed: true})
	if !r2.Completed() || r2.Informed != n {
		t.Fatalf("after g2: %+v", r2)
	}
	// Absolute clock: 10 rounds on g1, then 4 more hops on g2.
	if r2.InformedRound != 14 {
		t.Fatalf("informed at absolute round %d, want 14", r2.InformedRound)
	}
	// Cumulative energy covers both segments.
	if r2.TotalTx <= r1.TotalTx {
		t.Fatal("cumulative tx should grow across segments")
	}
}

func TestBroadcastSessionGraphSizeMismatchPanics(t *testing.T) {
	s := NewBroadcastSession(4, 0, flood{}, rng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.Run(graph.Complete(5), Options{MaxRounds: 1})
}

func TestLossZeroMatchesLosslessPath(t *testing.T) {
	// A zero-loss channel must give the same results as the default.
	g := graph.GNPDirected(200, 0.05, rng.New(50))
	a := RunBroadcast(g, 0, &coin{q: 0.2}, rng.New(51), Options{MaxRounds: 100})
	b := RunBroadcast(g, 0, &coin{q: 0.2}, rng.New(51), Options{MaxRounds: 100, Reception: LossyChannel(0)})
	if a.Informed != b.Informed || a.TotalTx != b.TotalTx {
		t.Fatalf("loss=0 changed results: %+v vs %+v", a, b)
	}
}

func TestLossSlowsDirectedPathFlood(t *testing.T) {
	// On a directed path flooding advances one hop per successful delivery;
	// with fading probability l each hop needs Geometric(1-l) tries, so the
	// completion round stretches by a factor ~1/(1-l).
	n := 60
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g := b.Build()
	clean := RunBroadcast(g, 0, flood{}, rng.New(60), Options{MaxRounds: 5000, StopWhenInformed: true})
	lossy := RunBroadcast(g, 0, flood{}, rng.New(60), Options{MaxRounds: 5000, StopWhenInformed: true, Reception: LossyChannel(0.5)})
	if clean.InformedRound != n-1 {
		t.Fatalf("clean path: %d", clean.InformedRound)
	}
	if !lossy.Completed() {
		t.Fatal("lossy flood never completed")
	}
	ratio := float64(lossy.InformedRound) / float64(clean.InformedRound)
	if ratio < 1.5 || ratio > 3.5 {
		t.Fatalf("loss=0.5 stretch factor %v, want ≈ 2", ratio)
	}
}

func TestLossCanResolveCollisions(t *testing.T) {
	// Two transmitters into one receiver always collide; with fading, rounds
	// where exactly one signal survives deliver the message. Fading can
	// therefore *help* the pathological flood livelock case.
	g := graph.FromEdges(4, [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	stuck := RunBroadcast(g, 0, flood{}, rng.New(70), Options{MaxRounds: 300})
	if stuck.Completed() {
		t.Fatal("lossless flood should livelock")
	}
	faded := RunBroadcast(g, 0, flood{}, rng.New(70), Options{MaxRounds: 300, Reception: LossyChannel(0.3), StopWhenInformed: true})
	if !faded.Completed() {
		t.Fatal("fading should eventually isolate one transmitter")
	}
}

func TestJammedReceiverBlocked(t *testing.T) {
	// 0 -> 1, 0 -> 2; node 2 is jammed in round 1 so only node 1 receives.
	g := graph.FromEdges(3, [][2]graph.NodeID{{0, 1}, {0, 2}})
	p := newScripted(map[int][]graph.NodeID{1: {0}, 2: {0}})
	// Let node 0 transmit twice (scripted) so node 2 gets a second chance.
	res := RunBroadcast(g, 0, p, rng.New(1), Options{
		MaxRounds: 5,
		Jammed: func(round int) []graph.NodeID {
			if round == 1 {
				return []graph.NodeID{2}
			}
			return nil
		},
	})
	if p.informed[1] != 1 {
		t.Fatalf("node 1 informed at %d, want 1", p.informed[1])
	}
	if p.informed[2] != 2 {
		t.Fatalf("node 2 informed at %d, want 2 (jammed in round 1)", p.informed[2])
	}
	if res.Informed != 3 {
		t.Fatalf("informed %d", res.Informed)
	}
}

func TestJammingEverythingPreventsBroadcast(t *testing.T) {
	g := graph.Complete(6)
	all := make([]graph.NodeID, 6)
	for i := range all {
		all[i] = graph.NodeID(i)
	}
	res := RunBroadcast(g, 0, flood{}, rng.New(1), Options{
		MaxRounds: 50,
		Jammed:    func(int) []graph.NodeID { return all },
	})
	if res.Informed != 1 {
		t.Fatalf("jam-everything still informed %d nodes", res.Informed)
	}
}

func TestGossipSessionCarriesKnowledge(t *testing.T) {
	// Disjoint halves again, gossip flavour: two cliques that later merge.
	n := 6
	b1 := graph.NewBuilder(n)
	b1.AddBoth(0, 1)
	b1.AddBoth(2, 3)
	b1.AddBoth(4, 5)
	g1 := b1.Build() // three pairs
	g2 := graph.Complete(n)
	sess := NewGossipSession(n)
	r1 := sess.Run(g1, &tdma{}, rng.New(1), GossipOptions{MaxRounds: 2 * n, StopWhenComplete: true})
	if r1.Completed() {
		t.Fatal("pairs-only topology cannot complete gossip")
	}
	if sess.KnownPairs() <= int64(n) {
		t.Fatal("pair exchanges should have grown knowledge")
	}
	if !sess.Knows(1, 0) || sess.Knows(2, 0) {
		t.Fatal("knowledge pattern wrong after pair phase")
	}
	r2 := sess.Run(g2, &tdma{}, rng.New(2), GossipOptions{MaxRounds: 3 * n, StopWhenComplete: true})
	if !r2.Completed() {
		t.Fatalf("complete-graph phase should finish gossip: %d pairs", sess.KnownPairs())
	}
	if !sess.Complete() {
		t.Fatal("session should report complete")
	}
	// MaxNodeTx is the maximum over the segment's own PerNodeTx, not a
	// session total: every node transmits twice in the pair phase, and the
	// merge phase completes before any node's second turn.
	if r1.MaxNodeTx != 2 || r2.MaxNodeTx != 1 {
		t.Fatalf("per-segment MaxNodeTx = %d, %d; want 2, 1", r1.MaxNodeTx, r2.MaxNodeTx)
	}
}
