package core

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
)

// GeneralBroadcast is the paper's Algorithm 3: an energy-efficient oblivious
// broadcasting protocol for arbitrary networks with known diameter D.
//
// A shared random selection sequence I = <I_1, I_2, ...> is drawn from the
// level distribution (α in the paper, Fig. 1 left); in round r every active
// node transmits with probability 2^{-I_r}. A node stays active for Window
// rounds after being informed (the paper's β·log² n), then goes passive
// forever.
//
// With Dist = α(λ = log(n/D)) and Window = Θ(log² n), broadcasting finishes
// in O(D·log(n/D) + log² n) rounds w.h.p. while each node transmits only
// O(log² n / λ) times in expectation (Theorem 4.1); a larger λ trades time
// O(Dλ + log² n) for energy O(log² n / λ) (Theorem 4.2).
//
// The Czumaj–Rytter baseline is this same skeleton with Dist = α′ and the
// longer window Θ(λ·log² n) that α′'s thinner level coverage requires — its
// expected energy is Θ(log² n) per node (§4 of the paper, and
// baseline.NewCzumajRytter).
type GeneralBroadcast struct {
	// Label names the protocol variant in results.
	Label string
	// Dist is the level distribution generating the selection sequence.
	Dist *dist.Distribution
	// Window is the number of rounds a node stays active after being
	// informed (the paper's β·log² n).
	Window int

	r       *rng.RNG
	seq     *rng.RNG
	curProb float64
	queue   radio.WindowQueue // informed, window not yet expired
	txs     radio.TxSet       // this round's transmitters (shared-draw set)
}

// NewAlgorithm3 builds the paper's configuration: α with λ = log₂(n/D) and
// window ⌈beta·log₂² n⌉ (beta = 1 when zero). n is the network size and D
// the known diameter.
func NewAlgorithm3(n, D int, beta float64) *GeneralBroadcast {
	if beta == 0 {
		beta = 1
	}
	return &GeneralBroadcast{
		Label:  "algorithm3",
		Dist:   dist.NewAlphaForDiameter(n, D),
		Window: windowRounds(n, beta),
	}
}

// NewTradeoff builds the Theorem 4.2 variant: α with an explicit λ in
// [log(n/D), log n], trading time O(Dλ + log² n) for energy O(log² n / λ).
func NewTradeoff(n, lambda int, beta float64) *GeneralBroadcast {
	if beta == 0 {
		beta = 1
	}
	return &GeneralBroadcast{
		Label:  fmt.Sprintf("tradeoff(lambda=%d)", lambda),
		Dist:   dist.NewAlpha(n, lambda),
		Window: windowRounds(n, beta),
	}
}

// windowRounds returns ⌈beta · log₂² n⌉.
func windowRounds(n int, beta float64) int {
	l := math.Log2(float64(n))
	w := int(math.Ceil(beta * l * l))
	if w < 1 {
		w = 1
	}
	return w
}

// WindowRounds exposes the β·log² n window formula for harnesses and
// baselines.
func WindowRounds(n int, beta float64) int { return windowRounds(n, beta) }

// Name implements radio.Broadcaster.
func (g *GeneralBroadcast) Name() string {
	if g.Label != "" {
		return g.Label
	}
	return "general-broadcast"
}

// Begin implements radio.Broadcaster.
func (g *GeneralBroadcast) Begin(n int, src graph.NodeID, r *rng.RNG) {
	if g.Dist == nil {
		panic("core: GeneralBroadcast needs a level distribution")
	}
	if g.Window < 1 {
		panic("core: GeneralBroadcast needs Window >= 1")
	}
	g.queue.Reset(n)
	g.txs.Reset()
	g.r = r
	// The shared selection sequence is common randomness: all nodes know it
	// (it is part of the algorithm description, like Czumaj–Rytter's
	// selection sequences). Derive it from the protocol RNG so each run gets
	// a fresh sequence deterministically.
	g.seq = r.Split(0xa15e1ec7)
	g.curProb = 0
}

// BeginRound implements radio.Broadcaster: draw I_r, set the round's shared
// transmission probability 2^{-I_r}, retire the nodes whose activity window
// expired, and draw the round's transmitter set by geometric-skip sampling
// over the still-active queue (the shared-draw scheme of
// radio.BatchBroadcaster — ShouldTransmit and AppendTransmitters both read
// the same set).
//
// The active list is a queue because informing times are non-decreasing in
// informing order, so window expiry always happens at the head.
func (g *GeneralBroadcast) BeginRound(round int) {
	k := g.Dist.Sample(g.seq)
	g.curProb = math.Ldexp(1, -k)
	g.queue.Expire(g.Window, round)
	g.txs.BeginRound()
	g.txs.DrawList(g.r, g.queue.Live(), g.curProb)
}

// OnInformed implements radio.Broadcaster.
func (g *GeneralBroadcast) OnInformed(round int, v graph.NodeID) {
	g.queue.Push(v, round)
}

// ShouldTransmit implements radio.Broadcaster: membership in the round's
// pre-drawn transmitter set.
func (g *GeneralBroadcast) ShouldTransmit(round int, v graph.NodeID) bool {
	return g.txs.Contains(v)
}

// AppendTransmitters implements radio.BatchBroadcaster.
func (g *GeneralBroadcast) AppendTransmitters(round int, _ []graph.NodeID, dst []graph.NodeID) []graph.NodeID {
	return g.txs.AppendTo(dst)
}

// Quiesced implements radio.Broadcaster: true once every informed node's
// activity window has expired, i.e. the queue is empty.
func (g *GeneralBroadcast) Quiesced(round int) bool { return len(g.queue.Live()) == 0 }
