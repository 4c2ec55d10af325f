// Package core implements the paper's primary contribution: the three
// energy-efficient randomised communication algorithms of Berenbrink,
// Cooper & Hu.
//
//   - Algorithm1 — broadcasting on random networks G(n,p) in three phases,
//     O(log n) rounds w.h.p. with AT MOST ONE transmission per node (§2).
//   - Algorithm2 — gossiping on G(n,p) in the join model, O(d log n) rounds
//     with O(log n) transmissions per node (§3).
//   - GeneralBroadcast — broadcasting on arbitrary networks with known
//     diameter D using the new selection distribution α, with optimal time
//     O(D log(n/D) + log² n) and only O(log² n / log(n/D)) transmissions
//     per node (§4.1, Algorithm 3); parameterising λ trades time for energy
//     (Theorem 4.2).
//
// All protocols are oblivious: every node runs the same code knowing only n
// and the protocol parameters (p for random networks, D for general ones),
// never the topology. They plug into the round engine in internal/radio.
package core

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
)

// Algorithm1 is the paper's Algorithm 1: an energy-efficient broadcasting
// protocol for the random network G(n,p) in which every node transmits at
// most once.
//
// Phase 1 (rounds 1..T, T = ⌊log n / log d⌋, d = np): every active node
// transmits with probability 1 and becomes passive; nodes receiving the
// message become active. The active set grows by a factor Θ(d) per round
// (Lemma 2.3), reaching Θ(d^T) nodes (Lemma 2.4).
//
// Phase 2 (round T+1, only when p ≤ n^{-2/5}): every active node transmits
// with probability 1/(d^T·p) and becomes passive either way; Θ(n) nodes are
// informed (Lemma 2.5).
//
// Phase 3 (Θ(log n) rounds): active nodes transmit with probability 1/d
// (sparse case) or 1/(d·p) (dense case) and become passive after
// transmitting; nodes informed during Phase 3 never become active. Every
// remaining node is informed w.h.p. (Lemma 2.6).
//
// The paper's proof constants (128 log n / c rounds with c ≈ 16⁻⁴4⁻³·...)
// are union-bound artefacts; Phase3Beta sets the practical Phase-3 length
// of ⌈Phase3Beta · log₂ n⌉ rounds.
type Algorithm1 struct {
	// P is the edge probability of the underlying G(n,p); the paper
	// requires p > δ·log n / n for a sufficiently large constant δ.
	P float64
	// Phase3Beta scales the Phase-3 round budget (default 8 when zero).
	Phase3Beta float64
	// DisablePhase2 is an ABLATION knob (experiment X2): skip Phase 2 even
	// in the sparse regime, moving straight from Phase 1 to Phase 3. The
	// Phase-3 active pool then stays at the Θ(d^T) ≈ 1/p nodes Phase 1
	// produced instead of the Θ(n) Phase 2 guarantees (Lemma 2.5), so the
	// per-node informing capacity collapses — demonstrating why Phase 2
	// exists.
	DisablePhase2 bool

	n           int
	d           float64
	t           int // T = floor(log n / log d)
	sparse      bool
	phase2Round int // == t+1 when sparse, else -1
	phase3From  int // first Phase-3 round
	phase3To    int // last Phase-3 round (inclusive)
	p2prob      float64
	p3prob      float64
	active      []graph.NodeID // active nodes in informing order; other informed nodes are passive
	txs         radio.TxSet    // this round's transmitters (shared-draw set)
	r           *rng.RNG
}

// NewAlgorithm1 returns the protocol for edge probability p with the default
// Phase-3 budget.
func NewAlgorithm1(p float64) *Algorithm1 { return &Algorithm1{P: p} }

// Name implements radio.Broadcaster.
func (a *Algorithm1) Name() string { return "algorithm1" }

// T returns ⌊log n / log d⌋, the Phase-1 length. Valid after Begin.
func (a *Algorithm1) T() int { return a.t }

// Phase2Round returns the round index of Phase 2, or -1 when p > n^{-2/5}
// and Phase 2 is skipped. Valid after Begin.
func (a *Algorithm1) Phase2Round() int { return a.phase2Round }

// Phase3Rounds returns the inclusive round range of Phase 3. Valid after Begin.
func (a *Algorithm1) Phase3Rounds() (from, to int) { return a.phase3From, a.phase3To }

// PhaseOfRound maps a round index to its phase (1, 2 or 3); 0 for rounds
// after the schedule ends. Valid after Begin.
func (a *Algorithm1) PhaseOfRound(round int) int {
	switch {
	case round >= 1 && round <= a.t:
		return 1
	case round == a.phase2Round:
		return 2
	case round >= a.phase3From && round <= a.phase3To:
		return 3
	default:
		return 0
	}
}

// TotalRounds returns the full schedule length. Valid after Begin.
func (a *Algorithm1) TotalRounds() int { return a.phase3To }

// Begin implements radio.Broadcaster.
func (a *Algorithm1) Begin(n int, src graph.NodeID, r *rng.RNG) {
	if !(a.P > 0 && a.P <= 1) { // NaN fails too
		panic(fmt.Sprintf("core: Algorithm1 needs 0 < p <= 1, got %v", a.P))
	}
	a.n = n
	a.d = float64(n) * a.P
	if a.d <= 1 {
		panic("core: Algorithm1 needs expected degree d = np > 1")
	}
	a.r = r
	if a.d >= float64(n) {
		a.t = 1
	} else {
		a.t = int(math.Floor(math.Log(float64(n)) / math.Log(a.d)))
		if a.t < 1 {
			a.t = 1
		}
	}
	a.sparse = a.P <= math.Pow(float64(n), -2.0/5.0)
	beta := a.Phase3Beta
	if beta == 0 {
		beta = 8
	}
	p3len := int(math.Ceil(beta * math.Log2(float64(n))))
	if p3len < 1 {
		p3len = 1
	}
	switch {
	case a.sparse && !a.DisablePhase2:
		a.phase2Round = a.t + 1
		a.phase3From = a.t + 2
		dT := math.Pow(a.d, float64(a.t))
		a.p2prob = clampProb(1 / (dT * a.P))
		a.p3prob = clampProb(1 / a.d)
	case a.sparse: // ablation X2: sparse regime with Phase 2 removed
		a.phase2Round = -1
		a.phase3From = a.t + 1
		a.p2prob = 0
		a.p3prob = clampProb(1 / a.d)
	default:
		a.phase2Round = -1
		a.phase3From = a.t + 1
		a.p2prob = 0
		a.p3prob = clampProb(1 / (a.d * a.P))
	}
	a.phase3To = a.phase3From + p3len - 1
	a.active = a.active[:0]
	a.txs.Reset()
}

// OnInformed implements radio.Broadcaster: nodes informed during Phases 1
// and 2 (and the source at round 0) become active; nodes informed during
// Phase 3 stay passive forever ("no node gets activated in Phase 3").
func (a *Algorithm1) OnInformed(round int, v graph.NodeID) {
	if round < a.phase3From {
		a.active = append(a.active, v)
	}
}

// BeginRound implements radio.Broadcaster: the round's transmitter set is
// drawn here, once, by geometric-skip sampling over the active list (the
// shared-draw scheme of radio.BatchBroadcaster). ShouldTransmit and
// AppendTransmitters both read the same set, so the scalar and batch engine
// paths consume identical randomness and select identical transmitters.
func (a *Algorithm1) BeginRound(round int) {
	a.txs.BeginRound()
	switch {
	case round <= a.t:
		// Phase 1: every active node transmits once, then retires.
		a.txs.AddAll(a.active)
		a.active = a.active[:0]
	case round == a.phase2Round:
		// Phase 2: one shot with probability 1/(d^T p); retire either way.
		a.txs.DrawList(a.r, a.active, a.p2prob)
		a.active = a.active[:0]
	case round >= a.phase3From && round <= a.phase3To:
		// Phase 3: geometric trickle under radio.TxSet's stream contract,
		// which fixes the randomness every round consumes (a silent round
		// consumes none). Transmitters retire during the draw, so the
		// active list only shrinks on transmitting rounds and keeps its
		// informing order.
		a.active = a.txs.RetireListStream(a.r, a.active, a.p3prob)
	}
}

// ShouldTransmit implements radio.Broadcaster: membership in the round's
// pre-drawn transmitter set.
func (a *Algorithm1) ShouldTransmit(round int, v graph.NodeID) bool {
	return a.txs.Contains(v)
}

// AppendTransmitters implements radio.BatchBroadcaster.
func (a *Algorithm1) AppendTransmitters(round int, _ []graph.NodeID, dst []graph.NodeID) []graph.NodeID {
	return a.txs.AppendTo(dst)
}

// Quiesced implements radio.Broadcaster: the protocol is silent once its
// schedule ends or no active node remains.
func (a *Algorithm1) Quiesced(round int) bool {
	return round >= a.phase3To || len(a.active) == 0
}

func clampProb(p float64) float64 {
	if p > 1 {
		return 1
	}
	if p < 0 {
		return 0
	}
	return p
}

// Algorithm2 is the paper's Algorithm 2: gossiping on G(n,p). Every node
// transmits with probability 1/d in every round (joining all known rumors
// into one message, handled by the radio.RunGossip engine). Theorem 3.2:
// gossip completes within O(d·log n) rounds w.h.p. and every node performs
// O(log n) transmissions. RoundBudget returns the schedule length
// ⌈Gamma·d·log₂ n⌉ to pass as the engine's MaxRounds (the paper uses
// 128·d·log n; Gamma is the practical analogue).
type Algorithm2 struct {
	// P is the edge probability of the underlying G(n,p).
	P float64
	// Gamma scales the round budget (default 8 when zero).
	Gamma float64

	n   int
	d   float64
	q   float64
	r   *rng.RNG
	txs radio.TxSet
}

// NewAlgorithm2 returns the gossip protocol for edge probability p.
func NewAlgorithm2(p float64) *Algorithm2 { return &Algorithm2{P: p} }

// Name implements radio.Gossiper.
func (a *Algorithm2) Name() string { return "algorithm2-gossip" }

// Begin implements radio.Gossiper.
func (a *Algorithm2) Begin(n int, r *rng.RNG) {
	if !(a.P > 0 && a.P <= 1) { // NaN fails too
		panic(fmt.Sprintf("core: Algorithm2 needs 0 < p <= 1, got %v", a.P))
	}
	a.d = float64(n) * a.P
	if a.d <= 1 {
		panic("core: Algorithm2 needs expected degree d = np > 1")
	}
	a.q = clampProb(1 / a.d)
	a.r = r
	a.n = n
	a.txs.Reset()
}

// RoundBudget returns the schedule length for an n-node network.
func (a *Algorithm2) RoundBudget(n int) int {
	gamma := a.Gamma
	if gamma == 0 {
		gamma = 8
	}
	d := float64(n) * a.P
	return int(math.Ceil(gamma * d * math.Log2(float64(n))))
}

// BeginRound implements radio.Gossiper: the round's transmitters are drawn
// once by geometric-skip sampling over the node range (every node gossips),
// under radio.TxSet's stream contract.
func (a *Algorithm2) BeginRound(round int) {
	a.txs.BeginRound()
	a.txs.DrawRangeStream(a.r, a.n, a.q)
}

// AppendTransmitters implements radio.Gossiper.
func (a *Algorithm2) AppendTransmitters(round int, dst []graph.NodeID) []graph.NodeID {
	return a.txs.AppendTo(dst)
}
