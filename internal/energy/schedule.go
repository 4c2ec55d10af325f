package energy

// Listener duty-cycle schedules: the dominant real energy lever for sensor
// radios (see the package notes — idle listening out-draws transmitting on
// a CC2420). A DutyCycle powers the LISTENING radio down for part of every
// cycle: an alive uninformed node is awake (receiver on, paying Listen)
// only in the On leading rounds of each Period-round cycle and sleeps
// through the rest — it cannot receive in those rounds and pays Sleep.
// Informed nodes are untouched: they already sleep between their scheduled
// transmissions, and a protocol's transmit schedule is never gated (the
// radio wakes to transmit).
//
// All schedule accounting is closed-form over phase residues: any Period
// consecutive rounds contain exactly On awake rounds for every node, so a
// node's passive drain over any span folds in O(1) and its death round is
// predicted in O(Period), however many wake/sleep boundaries either
// crosses — which keeps the lazy per-node accounting and the predicted
// death rounds bit-identical to a round-by-round replay with schedules
// active.

import (
	"fmt"

	"repro/internal/graph"
)

// DutyCycle is a periodic listener schedule, staggered by node id: node v
// is awake in round r iff (r - 1 + v) mod Period < On, which spreads wake
// windows evenly across the network (so every round has ~n·On/Period awake
// listeners instead of all-or-nothing).
type DutyCycle struct {
	// Period is the cycle length in rounds (>= 1).
	Period int
	// On is the number of awake rounds per cycle (1..Period). On == Period
	// means always awake — the schedule gates nothing.
	On int
}

func (d DutyCycle) validate() error {
	if d.Period < 1 {
		return fmt.Errorf("energy: DutyCycle.Period %d must be >= 1", d.Period)
	}
	if d.On < 1 || d.On > d.Period {
		return fmt.Errorf("energy: DutyCycle.On %d outside 1..Period (%d)", d.On, d.Period)
	}
	return nil
}

// active reports whether the schedule actually gates anything.
func (d DutyCycle) active() bool { return d.On < d.Period }

// classOf returns node v's phase-residue class in [0, Period).
func (d DutyCycle) classOf(v graph.NodeID) int { return int(v) % d.Period }

// awakeAt reports whether class c is awake in age round r (1-based, r >= 1).
func (d DutyCycle) awakeAt(c, r int) bool { return (r-1+c)%d.Period < d.On }

// awakeCount returns the number of s in [0, x] with s mod Period < On
// (0 for negative x) — the prefix-count behind all span settlement.
func (d DutyCycle) awakeCount(x int) int64 {
	if x < 0 {
		return 0
	}
	q, rem := (x+1)/d.Period, (x+1)%d.Period
	if rem > d.On {
		rem = d.On
	}
	return int64(q)*int64(d.On) + int64(rem)
}

// awakeIn returns the number of age rounds in [from, to] (from >= 1) in
// which class c is awake. O(1): two prefix counts.
func (d DutyCycle) awakeIn(c, from, to int) int64 {
	if to < from {
		return 0
	}
	return d.awakeCount(to-1+c) - d.awakeCount(from-2+c)
}
