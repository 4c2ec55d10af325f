package energy

// Tests of listener duty-cycle schedules: direct spend checks across wake
// boundaries and the naive-mirror fuzz with schedules active.

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// refAwake mirrors DutyCycle.awakeAt independently of the production code:
// node v is awake in round r iff (r-1+offset+v·stagger) mod Period < On.
func refAwake(d DutyCycle, v graph.NodeID, r int) bool {
	off := d.Offset
	if d.Stagger {
		off += int(v)
	}
	m := (r - 1 + off) % d.Period
	if m < 0 {
		m += d.Period
	}
	return m < d.On
}

func TestScheduleAwakeAtMatchesDefinition(t *testing.T) {
	r := rng.New(0x5c4ed)
	for trial := 0; trial < 200; trial++ {
		d := DutyCycle{
			Period:  1 + r.Intn(9),
			Offset:  r.Intn(21) - 10,
			Stagger: r.Bernoulli(0.5),
		}
		d.On = 1 + r.Intn(d.Period)
		for v := 0; v < 12; v++ {
			for round := 1; round <= 3*d.Period+2; round++ {
				got := d.awakeAt(d.classOf(graph.NodeID(v)), round)
				if want := refAwake(d, graph.NodeID(v), round); got != want {
					t.Fatalf("%+v node %d round %d: awake %v, definition says %v", d, v, round, got, want)
				}
			}
		}
		// awakeIn must agree with counting awakeAt round by round.
		c := d.classOf(graph.NodeID(r.Intn(12)))
		from := 1 + r.Intn(20)
		to := from + r.Intn(40) - 2
		want := int64(0)
		for round := from; round <= to; round++ {
			if d.awakeAt(c, round) {
				want++
			}
		}
		if got := d.awakeIn(c, from, to); got != want {
			t.Fatalf("%+v class %d: awakeIn(%d, %d) = %d, counted %d", d, c, from, to, got, want)
		}
	}
}

// TestScheduleAsleepRunSpendsSleepOnly: a listener scheduled asleep for a
// whole run pays exactly the sleep rate — never Listen — and an awake round
// at the boundary switches it back.
func TestScheduleAsleepRunSpendsSleepOnly(t *testing.T) {
	m := Model{Listen: 1, Sleep: 0.25}
	// Period 4, On 1, Offset 1: awake rounds are r ≡ 0 (mod 4), so rounds
	// 1..3 are one fully asleep span for every (un-staggered) node.
	st := NewState()
	st.Start(Spec{Model: m, Schedule: &DutyCycle{Period: 4, On: 1, Offset: 1}}, 3)
	for r := 1; r <= 3; r++ {
		st.EndRound(r, nil, nil)
	}
	rep := st.Report()
	if rep.ListenEnergy != 0 {
		t.Fatalf("asleep span accrued listen energy %g", rep.ListenEnergy)
	}
	if want := 3 * 3 * 0.25; rep.SleepEnergy != want {
		t.Fatalf("asleep span sleep energy %g, want %g", rep.SleepEnergy, want)
	}
	// Round 4 is the wake boundary: all three listeners pay Listen.
	st.EndRound(4, nil, nil)
	rep = st.Report()
	if rep.ListenEnergy != 3 {
		t.Fatalf("wake round listen energy %g, want 3", rep.ListenEnergy)
	}
}

// TestScheduleLazyFoldAcrossWakeBoundaries: per-node spends settle lazily
// (only when Remaining or Report forces a fold), and the closed-form span
// settlement must cross wake/sleep boundaries exactly.
func TestScheduleLazyFoldAcrossWakeBoundaries(t *testing.T) {
	m := Model{Listen: 0.75, Sleep: 0.125}
	d := &DutyCycle{Period: 3, On: 2, Offset: 0, Stagger: true}
	const n, rounds = 7, 23
	st := NewState()
	st.Start(Spec{Model: m, Budget: 1000, Schedule: d}, n)
	for r := 1; r <= rounds; r++ {
		st.EndRound(r, nil, nil)
	}
	for v := 0; v < n; v++ {
		awake := 0
		for r := 1; r <= rounds; r++ {
			if refAwake(*d, graph.NodeID(v), r) {
				awake++
			}
		}
		want := 1000 - (float64(awake)*m.Listen + float64(rounds-awake)*m.Sleep)
		if got := st.Remaining(graph.NodeID(v)); got != want {
			t.Fatalf("node %d: remaining %g, want %g (%d awake of %d rounds)", v, got, want, awake, rounds)
		}
	}
}

// randomSchedule draws a schedule (possibly inactive) for the fuzz loops.
func randomSchedule(r *rng.RNG) *DutyCycle {
	d := &DutyCycle{
		Period:  1 + r.Intn(7),
		Offset:  r.Intn(11) - 5,
		Stagger: r.Bernoulli(0.5),
	}
	d.On = 1 + r.Intn(d.Period)
	return d
}

// TestStateMatchesNaiveReferenceWithSchedule extends the naive-mirror fuzz
// to duty-cycled listeners: deliveries land only on awake listeners (the
// engine's FilterAwake applies first), an asleep uninformed node pays Sleep,
// and death rounds stay exact.
func TestStateMatchesNaiveReferenceWithSchedule(t *testing.T) {
	const n = 48
	const rounds = 300
	m := Model{Tx: 1, Rx: 0.5, Listen: 0.25, Sleep: 0.125}
	r := rng.New(0xd07c)

	for trial := 0; trial < 12; trial++ {
		sched := randomSchedule(r)
		budgets := make([]float64, n)
		for i := range budgets {
			budgets[i] = float64(2+r.Intn(200)) * 0.5
		}
		st := NewState()
		st.Start(Spec{Model: m, Budgets: budgets, Schedule: sched}, n)

		spent := make([]float64, n)
		informed := make([]bool, n)
		dead := make([]bool, n)
		naiveDead := 0

		st.NoteInformed(0, 0)
		informed[0] = true

		var txs, delivered []graph.NodeID
		for round := 1; round <= rounds; round++ {
			txs, delivered = txs[:0], delivered[:0]
			for v := 1; v < n; v++ {
				if dead[v] || informed[v] {
					continue
				}
				if r.Float64() < 0.04 {
					delivered = append(delivered, graph.NodeID(v))
				}
			}
			for v := 0; v < n; v++ {
				if !dead[v] && informed[v] && r.Float64() < 0.1 {
					txs = append(txs, graph.NodeID(v))
				}
			}
			// The engine's delivery pipeline: sleeping listeners miss the
			// message. FilterAwake must agree with the independent mirror.
			delivered = st.FilterAwake(delivered, round)
			for _, v := range delivered {
				if sched.active() && !refAwake(*sched, v, round) {
					t.Fatalf("trial %d round %d: FilterAwake kept sleeping node %d", trial, round, v)
				}
			}
			st.EndRound(round, txs, delivered)

			inTx := map[graph.NodeID]bool{}
			for _, v := range txs {
				inTx[v] = true
			}
			inRx := map[graph.NodeID]bool{}
			for _, v := range delivered {
				inRx[v] = true
			}
			for v := 0; v < n; v++ {
				if dead[v] {
					continue
				}
				switch {
				case inTx[graph.NodeID(v)]:
					spent[v] += m.Tx
				case inRx[graph.NodeID(v)]:
					spent[v] += m.Rx
				case informed[v]:
					spent[v] += m.Sleep
				case sched.active() && !refAwake(*sched, graph.NodeID(v), round):
					spent[v] += m.Sleep
				default:
					spent[v] += m.Listen
				}
			}
			for _, v := range delivered {
				informed[v] = true
			}
			for v := 0; v < n; v++ {
				if !dead[v] && spent[v] >= budgets[v]-1e-9 {
					dead[v] = true
					naiveDead++
				}
			}
			if st.DeadCount() != naiveDead {
				t.Fatalf("trial %d (%+v) round %d: dead %d, naive %d",
					trial, *sched, round, st.DeadCount(), naiveDead)
			}
		}

		rep := st.Report()
		for v := 0; v < n; v++ {
			if math.Abs(rep.Spent[v]-spent[v]) > 1e-9 {
				t.Fatalf("trial %d (%+v) node %d: spent %g, naive %g",
					trial, *sched, v, rep.Spent[v], spent[v])
			}
		}
	}
}

// TestScheduleValidationPanics: malformed schedules and the inactive
// On == Period case.
func TestScheduleValidationPanics(t *testing.T) {
	for name, d := range map[string]DutyCycle{
		"zero period": {Period: 0, On: 0},
		"zero on":     {Period: 4, On: 0},
		"on > period": {Period: 2, On: 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			NewState().Start(Spec{Model: UnitTx(), Schedule: &d}, 2)
		}()
	}
	// On == Period is valid but gates nothing: equivalent to no schedule.
	st := NewState()
	st.Start(Spec{Model: UnitTx(), Schedule: &DutyCycle{Period: 3, On: 3}}, 2)
	if st.Scheduled() {
		t.Fatal("an always-on schedule should resolve to unscheduled")
	}
	if !st.AwakeAt(1, 5) {
		t.Fatal("unscheduled AwakeAt must be true")
	}
}
