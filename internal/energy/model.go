// Package energy models per-round radio power states and battery depletion
// for the simulator: the missing half of the paper's energy story. The
// paper counts transmissions only; real sensor radios burn comparable power
// *listening* (the receiver chain draws as much current as the transmitter),
// so network lifetime is governed by idle cost as much as by the transmit
// schedule — see e.g. arXiv:1501.06647 and the survey arXiv:2004.06380.
//
// The model assigns each node exactly one radio state per round:
//
//   - Transmit — the node is an (alive) scheduled transmitter this round.
//   - Receive  — the node decodes the message for the first time this round.
//   - Listen   — the node is alive and uninformed: its receiver must be on,
//     waiting for the message.
//   - Sleep    — the node is alive, already informed and not transmitting:
//     in single-message broadcast it has nothing to hear, so it powers the
//     radio down between its scheduled transmissions.
//
// Depleted nodes transmit nothing, pay nothing, and (by default) receive
// nothing. Accounting is lazy: per-node charge is folded only at state
// transitions. A session starts with a horizon, the least charge left over
// twice the largest state cost: no node can reach its budget before that
// many rounds pass, so until then no death round is predicted at all. In
// the round that reaches the horizon each node gets a predicted death
// round, re-predicted from then on at its own events. Spontaneous deaths (a
// listener running out of battery with no event touching it) are found by
// one bound, the earliest predicted death: a simulated round costs
// O(events), plus one pass over the n predictions in a round that reaches
// the bound — so under a budget that never runs out, the engine's batch
// decision path keeps its sublinear rounds and no event pays for a
// prediction.
package energy

import (
	"fmt"
	"math"
)

// Model gives the per-round energy cost of each radio state. Units are
// arbitrary but must be consistent with the battery budgets; the presets
// normalise one transmission to cost 1.
type Model struct {
	Tx     float64 // transmit for one round
	Rx     float64 // receive (decode) for one round
	Listen float64 // idle-listen (receiver on, nothing decoded) for one round
	Sleep  float64 // radio powered down for one round
}

func (m Model) validate() error {
	for _, c := range [...]float64{m.Tx, m.Rx, m.Listen, m.Sleep} {
		if c < 0 {
			return fmt.Errorf("energy: negative state cost in model %+v", m)
		}
		if math.IsNaN(c) {
			return fmt.Errorf("energy: NaN state cost in model %+v", m)
		}
	}
	return nil
}

// UnitTx is the paper's energy measure: transmissions cost one unit each and
// every other state is free. With this model TotalEnergy == TotalTx and the
// per-node spend equals PerNodeTx.
func UnitTx() Model { return Model{Tx: 1} }

// CC2420 approximates a TI/Chipcon CC2420 802.15.4 sensor radio, normalised
// to one 0 dBm transmission round = 1 unit: TX draws 17.4 mA, the receive
// chain 18.8 mA whether or not a frame is being decoded (idle listening is
// NOT cheap — it slightly out-draws transmitting), and idle mode with the
// oscillator running 426 µA. This is the model under which listen cost
// dominates lifetime, the motivating regime for energy-efficient broadcast.
func CC2420() Model {
	return Model{Tx: 1, Rx: 18.8 / 17.4, Listen: 18.8 / 17.4, Sleep: 0.426 / 17.4}
}

// Spec configures the energy accounting of one broadcast session.
type Spec struct {
	// Model is the per-state cost table.
	Model Model
	// Budget is the uniform per-node initial charge. Zero (with Budgets nil)
	// means unlimited: the session meters energy but nothing ever depletes.
	Budget float64
	// Budgets, when non-nil, gives each node its own initial charge
	// (heterogeneous batteries). len(Budgets) must equal the session's node
	// count; every entry must be positive. The slice is copied.
	Budgets []float64
	// DeadReceive lets depleted nodes keep receiving (the paper's
	// listening-is-free semantics: a dead battery only silences the
	// transmitter). Default false: a depleted radio is off entirely. With
	// Model UnitTx it caps each node at Budget transmissions and changes
	// nothing else, which is how experiment X7 meters its batteries. A
	// resumed bank keeps the setting it was started with, so a node that ran
	// flat in one campaign can still be informed in the next.
	DeadReceive bool
	// Schedule, when non-nil, duty-cycles every listening radio (see
	// DutyCycle): an alive uninformed node is awake only in the On leading
	// rounds of each Period-round cycle, shifted by the node id; in
	// asleep rounds it pays Sleep instead of Listen and cannot receive —
	// the radio engine vetoes deliveries to sleeping listeners. On ==
	// Period gates nothing and is equivalent to nil.
	// Ignored on Resume (the resumed state keeps its schedule).
	Schedule *DutyCycle
	// TrackPartition records Report.PartitionRound: the first round at whose
	// end the alive nodes no longer form a single connected component
	// (reachability from the lowest-id alive node along out-edges through
	// alive nodes — exact for symmetric topologies, an upper-bound proxy for
	// asymmetric ones). Costs one O(n+m) sweep per round that has a death,
	// so it is opt-in.
	TrackPartition bool
	// Resume, when non-nil, continues an existing battery bank instead of
	// starting a fresh one — the repeated-campaign pattern: each campaign is
	// a new session (fresh protocol, new message, everyone back to
	// listening) drawing on the same persistent charge. All other fields
	// are ignored; the model and budgets are the resumed state's.
	Resume *State
}

// Report is the energy summary attached to a radio.Result. Round numbers
// are absolute over the state's whole life: within one session they equal
// session rounds, and across resumed campaigns they keep counting.
type Report struct {
	// Model echoes the cost table the run was accounted under.
	Model Model
	// Per-state energy totals over the whole network and state lifetime.
	TxEnergy, RxEnergy, ListenEnergy, SleepEnergy float64
	// Spent is the per-node cumulative energy spend.
	Spent []float64
	// Residual is the per-node remaining charge, clamped at 0 (a node's
	// final transmission may overdraw its last fraction of a unit). Nil when
	// the budget is unlimited.
	Residual []float64
	// DeadCount is the number of depleted nodes.
	DeadCount int
	// FirstDeathRound and HalfDeathRound are the network-lifetime marks: the
	// round at whose end the first node (resp. half the nodes) had depleted.
	// -1 if not reached.
	FirstDeathRound, HalfDeathRound int
	// PartitionRound is the first round at whose end the alive nodes were no
	// longer mutually connected (see Spec.TrackPartition). -1 if never
	// reached or not tracked.
	PartitionRound int
}

// TotalEnergy returns the network-wide energy consumed across all states.
func (r *Report) TotalEnergy() float64 {
	return r.TxEnergy + r.RxEnergy + r.ListenEnergy + r.SleepEnergy
}

// EnergyPerNode returns the mean per-node spend (0 for an empty report).
func (r *Report) EnergyPerNode() float64 {
	if len(r.Spent) == 0 {
		return 0
	}
	return r.TotalEnergy() / float64(len(r.Spent))
}
