package energy

// The naive mirror: a State driven through random event streams next to a
// per-round reference that gives every node exactly one radio state per
// round. Binary-exact costs (multiples of 1/8) and budgets (multiples of
// 1/4) make the comparison exact, death rounds included.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// sleepyModel costs more asleep than listening, so a receive moves the
// node's death earlier: its key must be re-predicted after the status
// change.
func sleepyModel() Model { return Model{Tx: 1, Rx: 0.5, Listen: 0.125, Sleep: 0.25} }

// mirrorRun is one event stream for checkMirror.
type mirrorRun struct {
	model    Model
	sched    *DutyCycle // nil: every listener is always awake
	budgets  []float64  // one per node; the node count is len(budgets)
	rounds   int        // age rounds in the stream
	rebaseAt int        // > 0: Rebase after this age round and start a second campaign
	txP, rxP float64    // per-round chance that an informed node transmits, an uninformed one receives
}

// checkMirror drives a fresh State and the naive mirror through one random
// event stream drawn from r. Every round it compares the dead count and the
// engine-side alive and awake filters; at the end, the whole Report.
func checkMirror(t testing.TB, label string, run mirrorRun, r *rng.RNG) {
	t.Helper()
	n, m := len(run.budgets), run.model
	st := NewState()
	st.Start(Spec{Model: m, Budgets: run.budgets, Schedule: run.sched}, n)
	awake := func(v graph.NodeID, age int) bool {
		return run.sched == nil || refAwake(*run.sched, v, age)
	}

	spent := make([]float64, n)
	informed := make([]bool, n)
	dead := make([]bool, n)
	paid := make([]bool, n) // the node paid an event cost this round
	naiveDead, naiveFirst, naiveHalf := 0, -1, -1

	st.NoteInformed(0, 0)
	informed[0] = true
	base := 0
	var txs, heard, delivered, alive, all []graph.NodeID
	for age := 1; age <= run.rounds; age++ {
		round := age - base
		txs, heard, delivered = txs[:0], heard[:0], delivered[:0]
		for v := 0; v < n; v++ {
			id := graph.NodeID(v)
			switch {
			case dead[v]:
			case informed[v]:
				if r.Float64() < run.txP {
					txs = append(txs, id)
				}
			case r.Float64() < run.rxP:
				heard = append(heard, id)
				if awake(id, age) {
					delivered = append(delivered, id)
				}
			}
		}
		// The engine's delivery pipeline: a sleeping listener misses the
		// message.
		if got := st.FilterAwake(heard, round); !slices.Equal(got, delivered) {
			t.Fatalf("%s round %d: FilterAwake kept %v, want %v", label, age, got, delivered)
		}
		st.EndRound(round, txs, delivered)

		for _, v := range txs {
			spent[v] += m.Tx
			paid[v] = true
		}
		for _, v := range delivered {
			spent[v] += m.Rx
			paid[v] = true
		}
		for v := 0; v < n; v++ {
			switch {
			case dead[v]:
			case paid[v]:
				paid[v] = false
			case informed[v] || !awake(graph.NodeID(v), age):
				spent[v] += m.Sleep
			default:
				spent[v] += m.Listen
			}
		}
		for _, v := range delivered {
			informed[v] = true
		}
		alive, all = alive[:0], all[:0]
		for v := 0; v < n; v++ {
			all = append(all, graph.NodeID(v))
			if !dead[v] && spent[v] >= run.budgets[v]-1e-9 {
				dead[v] = true
				naiveDead++
				if naiveFirst < 0 {
					naiveFirst = age
				}
				if naiveHalf < 0 && 2*naiveDead >= n {
					naiveHalf = age
				}
			}
			if !dead[v] {
				alive = append(alive, graph.NodeID(v))
			}
		}
		if st.DeadCount() != naiveDead {
			t.Fatalf("%s round %d: dead %d, naive %d", label, age, st.DeadCount(), naiveDead)
		}
		if got := st.FilterAlive(all); !slices.Equal(got, alive) {
			t.Fatalf("%s round %d: FilterAlive kept %v, naive alive %v", label, age, got, alive)
		}

		if age == run.rebaseAt {
			// A new campaign: every survivor listens again, and a fresh
			// source (a no-op if it is dead) holds the message.
			st.Rebase()
			base = age
			clear(informed)
			src := graph.NodeID(r.Intn(n))
			st.NoteInformed(src, 0)
			informed[src] = !dead[src]
		}
	}

	rep := st.Report()
	for v := 0; v < n; v++ {
		if rep.Spent[v] != spent[v] {
			t.Fatalf("%s node %d: spent %g, naive %g", label, v, rep.Spent[v], spent[v])
		}
		if want := max(run.budgets[v]-spent[v], 0); rep.Residual[v] != want {
			t.Fatalf("%s node %d: residual %g, naive %g", label, v, rep.Residual[v], want)
		}
	}
	if rep.DeadCount != naiveDead || rep.FirstDeathRound != naiveFirst || rep.HalfDeathRound != naiveHalf {
		t.Fatalf("%s: dead %d, lifetime marks (%d, %d); naive %d, (%d, %d)", label,
			rep.DeadCount, rep.FirstDeathRound, rep.HalfDeathRound, naiveDead, naiveFirst, naiveHalf)
	}
	// Cross-check the aggregate split against the per-node spends.
	sum := 0.0
	for _, s := range rep.Spent {
		sum += s
	}
	if math.Abs(sum-rep.TotalEnergy()) > 1e-6 {
		t.Fatalf("%s: per-node spend sum %g != state totals %g", label, sum, rep.TotalEnergy())
	}
}

// mirrorRows are the table the naive-mirror tests draw their streams from.
var mirrorRows = []struct {
	name      string
	model     Model
	scheduled bool    // a random duty cycle per trial
	minBudget float64 // budgets are multiples of 1/4 in [minBudget, maxBudget]
	maxBudget float64
	rebase    bool // Rebase halfway and start a second campaign
}{
	{"listen costs more than sleep", binModel(), false, 0.25, 6, false},
	{"sleep costs more than listen", sleepyModel(), false, 0.25, 6, false},
	{"rebase halfway", binModel(), false, 0.25, 100, true},
	// Budgets far above the costs put the horizon mid-stream, with the
	// deaths after it; after the Rebase it is recomputed from the folded
	// spends.
	{"deaths after the horizon", binModel(), false, 40, 100, false},
	{"deaths after the horizon, rebase halfway", binModel(), false, 40, 100, true},
	{"listen costs more than sleep", binModel(), true, 0.25, 100, false},
	{"sleep costs more than listen", sleepyModel(), true, 0.25, 24, false},
	{"rebase halfway", binModel(), true, 0.25, 100, true},
}

// runMirrorRows runs the scheduled or the unscheduled rows of mirrorRows,
// 16 random 64-node, 400-round streams each.
func runMirrorRows(t *testing.T, scheduled bool) {
	const n, rounds, trials = 64, 400, 16
	for _, row := range mirrorRows {
		if row.scheduled != scheduled {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			r := rng.New(0xeeee)
			for trial := 0; trial < trials; trial++ {
				run := mirrorRun{model: row.model, budgets: make([]float64, n), rounds: rounds, txP: 0.15, rxP: 0.05}
				for v := range run.budgets {
					run.budgets[v] = float64(int(4*row.minBudget)+r.Intn(int(4*(row.maxBudget-row.minBudget))+1)) / 4
				}
				if row.scheduled {
					run.sched = randomSchedule(r)
				}
				if row.rebase {
					run.rebaseAt = rounds / 2
				}
				label := fmt.Sprintf("trial %d", trial)
				if run.sched != nil {
					label += fmt.Sprintf(" (%+v)", *run.sched)
				}
				checkMirror(t, label, run, r)
			}
		})
	}
}

// TestStateMatchesNaiveReference checks the lazy folds and the predicted
// death rounds against the naive mirror without a schedule.
func TestStateMatchesNaiveReference(t *testing.T) { runMirrorRows(t, false) }

// TestStateMatchesNaiveReferenceWithSchedule does the same for
// duty-cycled listeners: deliveries land only on awake listeners (the
// engine's FilterAwake applies first), and an asleep uninformed node pays
// Sleep.
func TestStateMatchesNaiveReferenceWithSchedule(t *testing.T) { runMirrorRows(t, true) }

// FuzzStateMatchesNaiveReference runs checkMirror on fuzzed streams of
// 1 + n mod 64 nodes over 1 + rounds mod 400 rounds: costs in eighths up
// to 31/8, budgets in quarters, an optional duty cycle (period > 0) and an
// optional Rebase halfway.
func FuzzStateMatchesNaiveReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, n, tx, rx, listen, sleep, maxBudget, period, on uint8, rounds uint16, rebase bool) {
		eighths := func(b uint8) float64 { return float64(b%32) / 8 }
		run := mirrorRun{
			model:   Model{Tx: eighths(tx), Rx: eighths(rx), Listen: eighths(listen), Sleep: eighths(sleep)},
			budgets: make([]float64, 1+int(n)%64),
			rounds:  1 + int(rounds)%400,
		}
		r := rng.New(seed)
		for v := range run.budgets {
			run.budgets[v] = float64(1+r.Intn(1+int(maxBudget))) / 4
		}
		if period > 0 {
			d := &DutyCycle{Period: 1 + int(period)%8}
			d.On = 1 + int(on)%d.Period
			run.sched = d
		}
		if rebase {
			run.rebaseAt = run.rounds / 2
		}
		run.txP, run.rxP = 0.3*r.Float64(), 0.2*r.Float64()
		checkMirror(t, fmt.Sprintf("seed %d, %+v, schedule %v", seed, run.model, run.sched), run, r)
	})
}
