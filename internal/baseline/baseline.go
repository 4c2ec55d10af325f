// Package baseline implements the protocols the paper compares against:
//
//   - Flood — every informed node transmits every round (the naive
//     strategy; livelocks on any topology where frontiers collide).
//   - FixedProb — every informed node transmits with a constant probability
//     q each round; the uniform time-invariant sender class analysed by the
//     lower bounds of §4.2 (Observation 4.3).
//   - Decay — the Bar-Yehuda–Goldreich–Itai protocol: in each phase of
//     ⌈log n⌉ rounds an active node transmits in round 1 of the phase and
//     keeps transmitting with halving persistence, covering all
//     neighbourhood sizes; O((D + log n)·log n) broadcast time.
//   - CzumajRytter — the known-diameter algorithm of [11] as described in
//     §4: the Algorithm-3 skeleton with distribution α′ and the longer
//     Θ(λ·log² n) activity window that α′ requires, costing Θ(log² n)
//     transmissions per node.
//   - ElsasserGasieniec — the SPAA'05 three-phase broadcast for random
//     graphs [12] as described in §1.1: D−1 rounds of probability-1
//     flooding (up to D−1 transmissions per node), one round at probability
//     n/d^D, then Θ(log n) rounds at probability 1/d.
//   - TDMAGossip — a deterministic collision-free round-robin gossip
//     schedule (n rounds per sweep); the energy-hungry but safe contrast to
//     Algorithm 2.
package baseline

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
)

// Flood transmits from every informed node every round.
type Flood struct{}

// Name implements radio.Broadcaster.
func (Flood) Name() string { return "flood" }

// Begin implements radio.Broadcaster.
func (Flood) Begin(int, graph.NodeID, *rng.RNG) {}

// BeginRound implements radio.Broadcaster.
func (Flood) BeginRound(int) {}

// ShouldTransmit implements radio.Broadcaster.
func (Flood) ShouldTransmit(int, graph.NodeID) bool { return true }

// AppendTransmitters implements radio.BatchBroadcaster: every informed node
// transmits, so the batch path is a straight copy of the informed list.
func (Flood) AppendTransmitters(_ int, informed []graph.NodeID, dst []graph.NodeID) []graph.NodeID {
	return append(dst, informed...)
}

// OnInformed implements radio.Broadcaster.
func (Flood) OnInformed(int, graph.NodeID) {}

// Quiesced implements radio.Broadcaster.
func (Flood) Quiesced(int) bool { return false }

// FixedProb transmits from every informed node with probability Q each
// round. With Window > 0 a node retires Window rounds after being informed;
// Window == 0 means nodes stay active forever. This is the "oblivious
// algorithm with a time-invariant distribution" class of §4.2: on the
// Observation 4.3 network it needs Σ_r q ≥ log n / 4 per intermediate node,
// i.e. ≈ n·log n / 2 transmissions in total.
type FixedProb struct {
	Q      float64
	Window int

	r     *rng.RNG
	queue radio.WindowQueue // informed, window not yet expired
	txs   radio.TxSet       // this round's transmitters (shared-draw set)
}

// Name implements radio.Broadcaster.
func (f *FixedProb) Name() string { return fmt.Sprintf("fixed(q=%.4g)", f.Q) }

// Begin implements radio.Broadcaster.
func (f *FixedProb) Begin(n int, src graph.NodeID, r *rng.RNG) {
	if !(f.Q >= 0 && f.Q <= 1) { // NaN fails too
		panic("baseline: FixedProb needs q in [0,1]")
	}
	f.queue.Reset(n)
	f.txs.Reset()
	f.r = r
}

// BeginRound implements radio.Broadcaster: expire windows at the queue head
// and draw the round's Bernoulli(Q) transmitter set once, shared by the
// scalar and batch decision paths. The draw follows radio.TxSet's stream
// contract, so a silent round consumes no randomness.
func (f *FixedProb) BeginRound(round int) {
	if f.Window > 0 {
		f.queue.Expire(f.Window, round)
	}
	f.txs.BeginRound()
	f.txs.DrawListStream(f.r, f.queue.Live(), f.Q)
}

// RoundProb implements radio.UniformRound: every round is a Bernoulli(Q)
// draw over the live window queue. FixedProb is the last UniformRound; it
// stops skipping in ROADMAP item 10 (the next change to bench/).
func (f *FixedProb) RoundProb(int) (float64, bool) { return f.Q, true }

// SkipSilent implements radio.UniformRound, which the engine consults only
// for runs without energy accounting, until ROADMAP item 10. The candidate
// list shrinks only at window expiries during silence (nothing is informed
// in a silent round), so the skip walks the expiry breakpoints: within each
// stretch of constant candidate count the silent rounds come off the stream
// gap in O(1). It stops at the round where the queue empties — Quiesced
// first reports true there, and the engine must observe it normally.
func (f *FixedProb) SkipSilent(from, to int) int {
	round := from
	for round <= to {
		if f.Window > 0 {
			f.queue.Expire(f.Window, round)
		}
		k := len(f.queue.Live())
		if k == 0 {
			return round
		}
		max := to - round + 1
		if f.Window > 0 {
			// The head expires at expRound, shrinking the candidate list;
			// the per-round stream arithmetic changes there.
			if expRound := f.queue.HeadRound() + f.Window + 1; expRound-round < max {
				max = expRound - round
			}
		}
		m := f.txs.StreamSilentRounds(f.r, k, f.Q, max)
		round += m
		if m < max {
			return round
		}
	}
	return round
}

// OnInformed implements radio.Broadcaster.
func (f *FixedProb) OnInformed(round int, v graph.NodeID) { f.queue.Push(v, round) }

// ShouldTransmit implements radio.Broadcaster: membership in the round's
// pre-drawn transmitter set.
func (f *FixedProb) ShouldTransmit(round int, v graph.NodeID) bool {
	return f.txs.Contains(v)
}

// AppendTransmitters implements radio.BatchBroadcaster.
func (f *FixedProb) AppendTransmitters(round int, _ []graph.NodeID, dst []graph.NodeID) []graph.NodeID {
	return f.txs.AppendTo(dst)
}

// Quiesced implements radio.Broadcaster: true once every window has
// expired; without a window a node stays active forever.
func (f *FixedProb) Quiesced(int) bool { return f.Window > 0 && len(f.queue.Live()) == 0 }

// Decay is the Bar-Yehuda–Goldreich–Itai randomised broadcast protocol.
// Time is divided into phases of L = ⌈log₂ n⌉ rounds. At the start of each
// phase an active node plans to transmit for 1 + Geometric(1/2) consecutive
// rounds (capped at L): it certainly transmits in the phase's first round,
// then keeps going with halving probability — so within one phase each
// neighbourhood size 2^j gets a round where the expected number of
// transmitters is Θ(1). A node's phases are aligned to its own informing
// round (the protocol needs no global synchronisation beyond the round
// clock), and it stays active for Phases phases after being informed.
//
// Decay is a radio.BatchBroadcaster. Active nodes wait in a
// radio.WindowQueue whose window is Phases·L, and BeginRound walks them in
// informing order: nodes informed in one round share their phase position,
// which it computes once per informing round; at a phase start it draws
// each node's plan, and it puts every node still inside its plan into the
// round's TxSet. These are the draws, in the same order, that the per-node
// rule takes when it is asked of every informed node every round (the
// decay tests hold it to that rule, run as a scalar-only protocol).
type Decay struct {
	// Phases is how many phases a node stays active after informing.
	Phases int

	l     int
	r     *rng.RNG
	queue radio.WindowQueue // informed, Phases·l rounds not yet passed
	plan  []uint8           // plan[i]: rounds into its phase the i-th informed node transmits
	txs   radio.TxSet       // this round's transmitters (shared-draw set)
}

// NewDecay returns the protocol with the given per-node phase budget.
func NewDecay(phases int) *Decay {
	if phases < 1 {
		panic("baseline: Decay needs phases >= 1")
	}
	return &Decay{Phases: phases}
}

// Name implements radio.Broadcaster.
func (d *Decay) Name() string { return "decay" }

// Begin implements radio.Broadcaster.
func (d *Decay) Begin(n int, src graph.NodeID, r *rng.RNG) {
	d.l = max(1, int(math.Ceil(math.Log2(float64(n)))))
	d.queue.Reset(n)
	d.plan = slices.Grow(d.plan[:0], n)
	d.txs.Reset()
	d.r = r
}

// BeginRound implements radio.Broadcaster: retire the nodes whose Phases·L
// rounds have passed and draw the round's transmitter set.
func (d *Decay) BeginRound(round int) {
	d.queue.Expire(d.Phases*d.l, round)
	d.txs.BeginRound()
	live, at := d.queue.Live(), d.queue.LiveRounds()
	plan := d.plan[len(d.plan)-len(live):]
	last, inPhase := int32(-1), 0
	for k, v := range live {
		if at[k] != last { // a new informing round: its rounds into the phase
			last, inPhase = at[k], (round-int(at[k])-1)%d.l
		}
		if inPhase == 0 {
			// New phase: plan 1 + Geometric(1/2) transmitting rounds, capped.
			plan[k] = uint8(min(1+d.r.Geometric(0.5), d.l))
		}
		if inPhase < int(plan[k]) {
			d.txs.Add(v)
		}
	}
}

// OnInformed implements radio.Broadcaster.
func (d *Decay) OnInformed(round int, v graph.NodeID) {
	d.queue.Push(v, round)
	d.plan = append(d.plan, 0)
}

// ShouldTransmit implements radio.Broadcaster: membership in the round's
// pre-drawn transmitter set.
func (d *Decay) ShouldTransmit(round int, v graph.NodeID) bool { return d.txs.Contains(v) }

// AppendTransmitters implements radio.BatchBroadcaster.
func (d *Decay) AppendTransmitters(round int, _ []graph.NodeID, dst []graph.NodeID) []graph.NodeID {
	return d.txs.AppendTo(dst)
}

// Quiesced implements radio.Broadcaster: true once every informed node's
// phases have passed.
func (d *Decay) Quiesced(int) bool { return len(d.queue.Live()) == 0 }

// NewCzumajRytter builds the known-diameter Czumaj–Rytter baseline for an
// n-node network of diameter D: the GeneralBroadcast skeleton with the α′
// distribution and activity window ⌈beta·λ·log₂² n⌉ (beta = 1 when zero).
// The λ-times-longer window is what α′'s geometrically thinning deep levels
// require for per-neighbour success w.h.p., and is why this baseline spends
// Θ(log² n) transmissions per node where Algorithm 3 spends Θ(log² n / λ)
// (§4 of the paper).
func NewCzumajRytter(n, D int, beta float64) *core.GeneralBroadcast {
	if beta == 0 {
		beta = 1
	}
	lambda := dist.LambdaFor(n, D)
	return &core.GeneralBroadcast{
		Label:  "czumaj-rytter",
		Dist:   dist.NewAlphaPrimeForDiameter(n, D),
		Window: core.WindowRounds(n, beta*float64(lambda)),
	}
}

// ElsasserGasieniec is the three-phase broadcast of [12] for G(n,p), as
// described in §1.1 of the paper. D is the graph diameter (for G(n,p) above
// the connectivity threshold, D = ⌈log n / log d⌉ w.h.p., Lemma 3.1):
//
//	Phase 1 (rounds 1..D-1):    every informed node transmits (prob 1).
//	Phase 2 (round D):          every informed node transmits w.p. n/d^D.
//	Phase 3 (Θ(log n) rounds):  every node informed in Phases 1–2 transmits
//	                            w.p. 1/d each round.
//
// Unlike Algorithm 1, a node may transmit in every Phase-1 round, i.e. up
// to D−1 times — the energy gap experiment E12 measures exactly this.
type ElsasserGasieniec struct {
	// P is the edge probability of the underlying G(n,p).
	P float64
	// Phase3Beta scales the Phase-3 budget ⌈Phase3Beta·log₂ n⌉ (default 8).
	Phase3Beta float64

	n        int
	d        float64
	diam     int
	p2prob   float64
	p3prob   float64
	phase3To int
	all      []graph.NodeID // every informed node, informing order
	eligible []graph.NodeID // informed during Phases 1-2 (rounds <= diam)
	txs      radio.TxSet    // this round's transmitters (shared-draw set)
	r        *rng.RNG
}

// NewElsasserGasieniec returns the protocol for edge probability p.
func NewElsasserGasieniec(p float64) *ElsasserGasieniec {
	return &ElsasserGasieniec{P: p}
}

// Name implements radio.Broadcaster.
func (e *ElsasserGasieniec) Name() string { return "elsasser-gasieniec" }

// Begin implements radio.Broadcaster.
func (e *ElsasserGasieniec) Begin(n int, src graph.NodeID, r *rng.RNG) {
	if !(e.P > 0 && e.P <= 1) { // NaN fails too
		panic("baseline: ElsasserGasieniec needs 0 < p <= 1")
	}
	e.n = n
	e.d = float64(n) * e.P
	if e.d <= 1 {
		panic("baseline: ElsasserGasieniec needs d = np > 1")
	}
	e.r = r
	if e.d >= float64(n) {
		e.diam = 1
	} else {
		e.diam = int(math.Ceil(math.Log(float64(n)) / math.Log(e.d)))
		if e.diam < 1 {
			e.diam = 1
		}
	}
	dD := math.Pow(e.d, float64(e.diam))
	e.p2prob = clamp01(float64(n) / dD)
	e.p3prob = clamp01(1 / e.d)
	beta := e.Phase3Beta
	if beta == 0 {
		beta = 8
	}
	e.phase3To = e.diam + int(math.Ceil(beta*math.Log2(float64(n))))
	e.all = e.all[:0]
	e.eligible = e.eligible[:0]
	e.txs.Reset()
}

// BeginRound implements radio.Broadcaster: draw the round's transmitter set
// once (flood, one Bernoulli shot, or the Phase-3 trickle over the nodes
// informed in Phases 1–2), shared by the scalar and batch decision paths.
func (e *ElsasserGasieniec) BeginRound(round int) {
	e.txs.BeginRound()
	switch {
	case round <= e.diam-1:
		// Phase 1: flood — every informed node transmits.
		e.txs.AddAll(e.all)
	case round == e.diam:
		e.txs.DrawList(e.r, e.all, e.p2prob)
	case round <= e.phase3To:
		// Phase 3: only nodes informed during Phases 1–2 participate
		// (Phase 2 is round e.diam, so informing round <= e.diam qualifies).
		// Stream-drawn, so silent trickle rounds consume no randomness.
		e.txs.DrawListStream(e.r, e.eligible, e.p3prob)
	}
}

// OnInformed implements radio.Broadcaster.
func (e *ElsasserGasieniec) OnInformed(round int, v graph.NodeID) {
	e.all = append(e.all, v)
	if round <= e.diam {
		e.eligible = append(e.eligible, v)
	}
}

// ShouldTransmit implements radio.Broadcaster: membership in the round's
// pre-drawn transmitter set.
func (e *ElsasserGasieniec) ShouldTransmit(round int, v graph.NodeID) bool {
	return e.txs.Contains(v)
}

// AppendTransmitters implements radio.BatchBroadcaster.
func (e *ElsasserGasieniec) AppendTransmitters(round int, _ []graph.NodeID, dst []graph.NodeID) []graph.NodeID {
	return e.txs.AppendTo(dst)
}

// Quiesced implements radio.Broadcaster.
func (e *ElsasserGasieniec) Quiesced(round int) bool { return round >= e.phase3To }

func clamp01(p float64) float64 {
	if p > 1 {
		return 1
	}
	if p < 0 {
		return 0
	}
	return p
}

// TDMAGossip is the deterministic round-robin gossip schedule: node
// (round-1) mod n transmits alone in each round, so there are never
// collisions and a full sweep takes n rounds. Gossip completes within
// n·(D+1) rounds on any strongly connected n-node graph, with exactly one
// transmission per node per sweep — energy Θ(D) per node, versus
// Algorithm 2's Θ(log n).
type TDMAGossip struct{ n int }

// Name implements radio.Gossiper.
func (t *TDMAGossip) Name() string { return "tdma-gossip" }

// Begin implements radio.Gossiper.
func (t *TDMAGossip) Begin(n int, r *rng.RNG) { t.n = n }

// BeginRound implements radio.Gossiper.
func (t *TDMAGossip) BeginRound(int) {}

// AppendTransmitters implements radio.Gossiper: the round's single slot
// owner.
func (t *TDMAGossip) AppendTransmitters(round int, dst []graph.NodeID) []graph.NodeID {
	return append(dst, graph.NodeID((round-1)%t.n))
}

// UniformGossip transmits with a fixed probability q every round — the
// Algorithm 2 shape with a configurable rate, used by gossip ablations
// (Algorithm 2 itself is the q = 1/d instance).
type UniformGossip struct {
	Q float64

	n   int
	r   *rng.RNG
	txs radio.TxSet
}

// Name implements radio.Gossiper.
func (u *UniformGossip) Name() string { return fmt.Sprintf("uniform-gossip(q=%.4g)", u.Q) }

// Begin implements radio.Gossiper.
func (u *UniformGossip) Begin(n int, r *rng.RNG) {
	if !(u.Q >= 0 && u.Q <= 1) { // NaN fails too
		panic("baseline: UniformGossip needs q in [0,1]")
	}
	u.n = n
	u.r = r
	u.txs.Reset()
}

// BeginRound implements radio.Gossiper: draw the round's Bernoulli(Q)
// transmitter set once, under radio.TxSet's stream contract.
func (u *UniformGossip) BeginRound(round int) {
	u.txs.BeginRound()
	u.txs.DrawRangeStream(u.r, u.n, u.Q)
}

// AppendTransmitters implements radio.Gossiper.
func (u *UniformGossip) AppendTransmitters(round int, dst []graph.NodeID) []graph.NodeID {
	return u.txs.AppendTo(dst)
}
