package energy

// The event-order reference: a State driven through random event streams
// under CC2420 costs, which are not binary-exact, next to a per-node lazy
// ledger that folds and charges at each event in the State's order —
// passive rounds up to the event's round first, then the event's cost.
// Different orders of the same float additions round differently, so this
// pins every spend bit for bit where the naive mirror (binary-exact costs)
// cannot.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// eventLedger is the reference: one spend and one fold anchor per node,
// folded only at that node's own events, death checks and Rebase.
type eventLedger struct {
	model  Model
	sched  *DutyCycle
	budget []float64
	spent  []float64
	anchor []int
	status []uint8
}

// passive returns v's passive drain over age rounds [from, to] under its
// status: Listen and Sleep by awake round for a duty-cycled listener, one
// rate times the round count otherwise.
func (l *eventLedger) passive(v graph.NodeID, from, to int) float64 {
	d := to - from + 1
	if d <= 0 {
		return 0
	}
	switch l.status[v] {
	case statusListening:
		if l.sched == nil {
			return l.model.Listen * float64(d)
		}
		var aw int64
		for r := from; r <= to; r++ {
			if refAwake(*l.sched, v, r) {
				aw++
			}
		}
		return l.model.Listen*float64(aw) + l.model.Sleep*float64(int64(d)-aw)
	case statusInformed:
		return l.model.Sleep * float64(d)
	}
	return 0
}

func (l *eventLedger) fold(v graph.NodeID, through int) {
	if through > l.anchor[v] {
		l.spent[v] += l.passive(v, l.anchor[v]+1, through)
		l.anchor[v] = through
	}
}

// charge folds v's passive rounds before age, then adds the event's cost.
func (l *eventLedger) charge(v graph.NodeID, age int, cost float64) {
	l.fold(v, age-1)
	l.spent[v] += cost
	l.anchor[v] = age
}

func (l *eventLedger) spendAt(v graph.NodeID, age int) float64 {
	if age <= l.anchor[v] {
		return l.spent[v]
	}
	return l.spent[v] + l.passive(v, l.anchor[v]+1, age)
}

// TestStateSpendsMatchEventOrderReference drives 16 random 64-node,
// 400-round streams per row with CC2420 costs, per-node budgets that about
// half the nodes exhaust (so death keys are live), a Rebase halfway, and a
// few transmitters that are still listening. Every round the State's dead set
// must equal the ledger's; at the end every Spent and Residual must equal
// the ledger's bit for bit, with the same dead count and lifetime marks.
func TestStateSpendsMatchEventOrderReference(t *testing.T) {
	const n, rounds, trials = 64, 400, 16
	for _, scheduled := range []bool{false, true} {
		t.Run(fmt.Sprintf("scheduled=%v", scheduled), func(t *testing.T) {
			r := rng.New(0xcc2420)
			deaths, keyed := 0, false
			for trial := 0; trial < trials; trial++ {
				var sched *DutyCycle
				if scheduled {
					sched = randomSchedule(r)
				}
				budgets := make([]float64, n)
				for v := range budgets {
					budgets[v] = 40 + 120*r.Float64()
				}
				d, k := checkEventOrder(t, fmt.Sprintf("trial %d, schedule %v", trial, sched), CC2420(), sched, budgets, rounds, r)
				deaths += d
				keyed = keyed || k
			}
			if deaths == 0 || !keyed {
				t.Fatalf("the streams killed %d nodes and keyed=%v: the death keys were never exercised", deaths, keyed)
			}
		})
	}
}

// checkEventOrder runs one stream through a fresh State and the ledger and
// returns the number of deaths and whether the State's death keys went
// live.
func checkEventOrder(t *testing.T, label string, m Model, sched *DutyCycle, budgets []float64, rounds int, r *rng.RNG) (deaths int, keyed bool) {
	t.Helper()
	n := len(budgets)
	st := NewState()
	st.Start(Spec{Model: m, Budgets: budgets, Schedule: sched}, n)
	l := &eventLedger{model: m, sched: sched, budget: budgets,
		spent: make([]float64, n), anchor: make([]int, n), status: make([]uint8, n)}
	firstDeath, halfDeath := -1, -1

	informed := func(v graph.NodeID, round int) {
		st.NoteInformed(v, round)
		if l.status[v] == statusListening {
			l.fold(v, round)
			l.status[v] = statusInformed
		}
	}
	informed(0, 0)
	base := 0
	var txs, delivered []graph.NodeID
	for age := 1; age <= rounds; age++ {
		round := age - base
		txs, delivered = txs[:0], delivered[:0]
		for v := 0; v < n; v++ {
			id := graph.NodeID(v)
			switch l.status[v] {
			case statusInformed:
				if r.Float64() < 0.15 {
					txs = append(txs, id)
				}
			case statusListening:
				switch u := r.Float64(); {
				case u < 0.02:
					txs = append(txs, id) // charged through charge, not inline
				case u < 0.08 && (sched == nil || refAwake(*sched, id, age)):
					delivered = append(delivered, id)
				}
			}
		}
		st.EndRound(round, txs, delivered)
		keyed = keyed || st.keyed

		for _, v := range txs {
			l.charge(v, age, m.Tx)
		}
		for _, v := range delivered {
			l.charge(v, age, m.Rx)
			l.status[v] = statusInformed
		}
		for v := 0; v < n; v++ {
			id := graph.NodeID(v)
			if l.status[v] == statusDead || l.spendAt(id, age) < budgets[v]-depleteEps {
				continue
			}
			l.fold(id, age)
			l.status[v] = statusDead
			deaths++
			if firstDeath < 0 {
				firstDeath = age
			}
			if halfDeath < 0 && 2*deaths >= n {
				halfDeath = age
			}
		}
		for v := 0; v < n; v++ {
			if st.Alive(graph.NodeID(v)) != (l.status[v] != statusDead) {
				t.Fatalf("%s round %d: node %d alive %v, reference %v", label, age,
					v, st.Alive(graph.NodeID(v)), l.status[v] != statusDead)
			}
		}

		if age == rounds/2 {
			// A new campaign: every survivor listens again, and a fresh
			// source (a no-op if it is dead) holds the message.
			st.Rebase()
			for v := 0; v < n; v++ {
				if l.status[v] != statusDead {
					l.fold(graph.NodeID(v), age)
					l.status[v] = statusListening
				}
			}
			base = age
			informed(graph.NodeID(r.Intn(n)), 0)
		}
	}

	rep := st.Report()
	for v := 0; v < n; v++ {
		want := l.spendAt(graph.NodeID(v), rounds)
		if math.Float64bits(rep.Spent[v]) != math.Float64bits(want) {
			t.Fatalf("%s node %d: spent %v, reference %v", label, v, rep.Spent[v], want)
		}
		if res := max(budgets[v]-want, 0); math.Float64bits(rep.Residual[v]) != math.Float64bits(res) {
			t.Fatalf("%s node %d: residual %v, reference %v", label, v, rep.Residual[v], res)
		}
	}
	if rep.DeadCount != deaths || rep.FirstDeathRound != firstDeath || rep.HalfDeathRound != halfDeath {
		t.Fatalf("%s: dead %d, lifetime marks (%d, %d); reference %d, (%d, %d)", label,
			rep.DeadCount, rep.FirstDeathRound, rep.HalfDeathRound, deaths, firstDeath, halfDeath)
	}
	return deaths, keyed
}
