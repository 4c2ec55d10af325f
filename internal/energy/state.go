package energy

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// Node status byte: exactly one per node, determining its passive drain
// rate (Listen while uninformed, Sleep once informed) and its eligibility
// to transmit or receive.
const (
	statusListening uint8 = iota // alive, uninformed: receiver on every round
	statusInformed               // alive, informed: sleeps when not transmitting
	statusDead                   // depleted: no tx, no charge, (optionally) no rx
)

// neverRound is the key of a node that will not die of passive drain (and
// of a dead node).
const neverRound = math.MaxInt64

// depleteEps absorbs float rounding at the death threshold: a node is dead
// when its spend reaches budget - depleteEps. With binary-exact cost tables
// (powers of two, integers) death rounds are exact.
const depleteEps = 1e-9

// State is one battery bank plus the lazy accounting machinery. It is
// created once (or borrowed from a radio.Scratch), reset per session by
// Start, and optionally carried across sessions with Spec.Resume. All
// methods are allocation-free after Start; none are safe for concurrent
// use.
type State struct {
	model          Model
	n              int
	limited        bool
	deadReceive    bool
	trackPartition bool

	// Listener duty-cycle schedule (hasSched iff one is active):
	// listenPhase[c] counts the alive LISTENING nodes of phase class c, so
	// the awake-listener population of any round — and of any idle span —
	// is a Σ over at most Period classes (see schedule.go).
	sched       DutyCycle
	hasSched    bool
	listenPhase []int64

	budget []float64
	spent  []float64 // charge folded through round anchor[v]
	anchor []int32   // last *age* round whose cost is included in spent[v]
	status []uint8

	// Predicted spontaneous-death rounds (limited mode only): key[v] is the
	// age round at whose end v's passive drain alone reaches its budget.
	// Keys are predictions, verified by sweepDeaths before it kills, and
	// they are kept only while keyed is set. Start and Rebase clear keyed
	// and set nextCheck to a horizon before which no node can reach its
	// budget; the first sweep that reaches the horizon predicts every key
	// and sets keyed. From then on nextCheck is a lower bound on every key,
	// so no node can die before age round nextCheck and sweepDeaths scans
	// only from there on.
	key       []int64
	nextCheck int64
	keyed     bool

	round int // current age round = rounds lived across all sessions
	base  int // session round r ↔ age round base + r

	aliveListening int
	aliveInformed  int
	dead           int

	// Aggregate per-state usage, kept as exact integer event/node-round
	// counters; the cost products are taken once, at Report time.
	txEvents, rxEvents                int64
	listenNodeRounds, sleepNodeRounds int64

	firstDeath, halfDeath, partition int // age rounds; -1 until reached

	bfsSeen  []bool
	bfsQueue []graph.NodeID
	bfsRow   []graph.NodeID // out-row buffer for implicit graphs
}

// NewState returns an empty state; Start sizes it.
func NewState() *State { return &State{} }

// Start resets the state for a fresh session of n nodes under spec. It
// reuses prior storage when capacities suffice, so a scratch-held state
// costs nothing steady-state across trials.
func (st *State) Start(spec Spec, n int) {
	if err := spec.Model.validate(); err != nil {
		panic(err)
	}
	if n < 1 {
		panic("energy: state needs n >= 1")
	}
	if spec.Budgets != nil && len(spec.Budgets) != n {
		panic(fmt.Sprintf("energy: %d per-node budgets for an %d-node session", len(spec.Budgets), n))
	}
	if spec.Budget < 0 {
		panic("energy: negative budget")
	}
	if math.IsNaN(spec.Budget) {
		panic("energy: NaN budget")
	}
	st.model = spec.Model
	st.n = n
	st.deadReceive = spec.DeadReceive
	st.trackPartition = spec.TrackPartition
	st.limited = spec.Budgets != nil || (spec.Budget > 0 && !math.IsInf(spec.Budget, 1))

	st.hasSched = false
	if spec.Schedule != nil {
		if err := spec.Schedule.validate(); err != nil {
			panic(err)
		}
		if spec.Schedule.active() {
			st.sched = *spec.Schedule
			st.hasSched = true
			st.listenPhase = slices.Grow(st.listenPhase[:0], st.sched.Period)[:st.sched.Period]
			for c := range st.listenPhase {
				st.listenPhase[c] = 0
			}
			for v := 0; v < n; v++ {
				st.listenPhase[st.sched.classOf(graph.NodeID(v))]++
			}
		}
	}

	st.spent = slices.Grow(st.spent[:0], n)[:n]
	st.anchor = slices.Grow(st.anchor[:0], n)[:n]
	st.status = slices.Grow(st.status[:0], n)[:n]
	for i := 0; i < n; i++ {
		st.spent[i] = 0
		st.anchor[i] = 0
		st.status[i] = statusListening
	}
	if st.limited {
		st.budget = slices.Grow(st.budget[:0], n)[:n]
		if spec.Budgets != nil {
			for i, b := range spec.Budgets {
				if b <= 0 {
					panic(fmt.Sprintf("energy: non-positive budget %g for node %d", b, i))
				}
				if math.IsNaN(b) {
					panic(fmt.Sprintf("energy: NaN budget for node %d", i))
				}
				st.budget[i] = b
			}
		} else {
			for i := range st.budget {
				st.budget[i] = spec.Budget
			}
		}
		st.key = slices.Grow(st.key[:0], n)[:n]
	}
	if st.trackPartition && len(st.bfsSeen) < n {
		// Sized here so CheckPartition stays allocation-free in the round
		// loop.
		st.bfsSeen = make([]bool, n)
		st.bfsQueue = make([]graph.NodeID, 0, n)
	}
	st.round, st.base = 0, 0
	st.aliveListening, st.aliveInformed, st.dead = n, 0, 0
	st.txEvents, st.rxEvents, st.listenNodeRounds, st.sleepNodeRounds = 0, 0, 0, 0
	st.firstDeath, st.halfDeath, st.partition = -1, -1, -1
	st.setHorizon()
}

// Rebase readies a persistent state for the next session (campaign): spends
// are folded to the current round, every surviving node goes back to
// listening (a new message is about to circulate), and the session round
// clock re-anchors so the next session's round 1 continues the age clock.
func (st *State) Rebase() {
	for v := 0; v < st.n; v++ {
		if st.status[v] == statusDead {
			continue
		}
		st.fold(graph.NodeID(v), st.round)
		if st.status[v] == statusInformed {
			st.status[v] = statusListening
			st.aliveInformed--
			st.aliveListening++
			st.noteListenEnter(graph.NodeID(v))
		}
	}
	st.base = st.round
	st.setHorizon()
}

// N returns the node count the state was started for.
func (st *State) N() int { return st.n }

// Alive reports whether node v still has charge.
func (st *State) Alive(v graph.NodeID) bool { return st.status[v] != statusDead }

// AliveCount returns the number of non-depleted nodes.
func (st *State) AliveCount() int { return st.n - st.dead }

// DeadCount returns the number of depleted nodes.
func (st *State) DeadCount() int { return st.dead }

// DeadReceive reports whether depleted nodes may still receive.
func (st *State) DeadReceive() bool { return st.deadReceive }

// NoteInformed records that node v holds the message from the start (the
// broadcast source, or every pre-informed node of a resumed session): no
// receive cost, but from the next round on v sleeps instead of listening.
// No-op for depleted nodes.
func (st *State) NoteInformed(v graph.NodeID, sessionRound int) {
	if st.status[v] != statusListening {
		return
	}
	st.fold(v, st.base+sessionRound)
	st.noteListenExit(v)
	st.status[v] = statusInformed
	st.aliveListening--
	st.aliveInformed++
	if st.keyed {
		st.fixKey(v)
	}
}

// noteListenExit / noteListenEnter maintain the schedule's phase-class
// populations across listening-status transitions. No-ops without a
// schedule. Call while v's status is still statusListening (exit) or
// just after it became statusListening (enter).
func (st *State) noteListenExit(v graph.NodeID) {
	if st.hasSched {
		st.listenPhase[st.sched.classOf(v)]--
	}
}

func (st *State) noteListenEnter(v graph.NodeID) {
	if st.hasSched {
		st.listenPhase[st.sched.classOf(v)]++
	}
}

// Scheduled reports whether a listener duty-cycle schedule is active.
func (st *State) Scheduled() bool { return st.hasSched }

// FilterAwake drops receivers whose radio is duty-cycled asleep in the
// given session round, in place, preserving order. The engine applies it
// to the delivered list so a sleeping listener misses the message (and
// keeps paying Sleep, not Rx).
func (st *State) FilterAwake(list []graph.NodeID, sessionRound int) []graph.NodeID {
	if !st.hasSched {
		return list
	}
	age := st.base + sessionRound
	out := list[:0]
	for _, v := range list {
		if st.sched.awakeAt(st.sched.classOf(v), age) {
			out = append(out, v)
		}
	}
	return out
}

// FilterAlive drops depleted nodes from list in place, preserving order,
// and returns the shortened slice. While no node has died it returns list
// without reading it.
func (st *State) FilterAlive(list []graph.NodeID) []graph.NodeID {
	if st.dead == 0 {
		return list
	}
	out := list[:0]
	for _, v := range list {
		if st.status[v] != statusDead {
			out = append(out, v)
		}
	}
	return out
}

// EndRound settles the accounting of one simulated round: transmitters
// (already filtered to alive nodes, all informed) pay Tx, first-time
// receivers pay Rx and switch to the informed/sleeping regime, every other
// alive node pays Listen or Sleep by status, and depletions are detected.
// Returns the number of nodes that died at the end of this round.
//
// An informed transmitter is charged inline, without charge's calls: its
// passive rate is Sleep under any duty cycle (schedules gate listeners
// only), so its fold is Sleep times its unfolded rounds, added before Tx in
// charge's order, and every spend stays bit-identical.
//
// Call exactly once per simulated round, with session rounds advancing by
// one (the engine's round loop does): the aggregate listen/sleep totals
// accrue one round per call.
func (st *State) EndRound(sessionRound int, transmitters, delivered []graph.NodeID) (newDeaths int) {
	age := st.base + sessionRound
	st.round = age

	// txInf counts transmitters in the informed regime — in a conforming
	// protocol all of them, but the accounting stays consistent even for a
	// transmitter the engine was handed outside the informed list.
	txInf := 0
	spent, anchor, status := st.spent, st.anchor, st.status
	sleep, tx := st.model.Sleep, st.model.Tx
	for _, v := range transmitters {
		if status[v] == statusInformed {
			txInf++
			if d := age - 1 - int(anchor[v]); d > 0 {
				spent[v] += sleep * float64(d)
			}
			spent[v] += tx
			anchor[v] = int32(age)
		} else {
			st.charge(v, age, tx)
		}
		if st.keyed {
			st.fixKey(v)
		}
	}
	listenersBefore := st.aliveListening
	sleepersBefore := st.aliveInformed - txInf
	// Under a duty-cycle schedule only the AWAKE listeners pay Listen this
	// round; the asleep ones pay Sleep. Receivers were necessarily awake
	// (the engine vetoes deliveries to sleeping listeners), so they, like
	// any listening transmitter, come out of the awake share.
	awakeBefore := listenersBefore
	if st.hasSched {
		awakeBefore = st.awakeListenersAt(age)
	}
	rx := 0
	for _, v := range delivered {
		if st.status[v] == statusDead {
			continue // DeadReceive mode: an informed corpse pays nothing
		}
		rx++
		st.charge(v, age, st.model.Rx)
		st.noteListenExit(v)
		st.status[v] = statusInformed
		st.aliveListening--
		st.aliveInformed++
		if st.keyed {
			st.fixKey(v) // after the switch: the passive rate is now Sleep
		}
	}

	st.txEvents += int64(len(transmitters))
	st.rxEvents += int64(rx)
	st.listenNodeRounds += int64(awakeBefore - rx - (len(transmitters) - txInf))
	st.sleepNodeRounds += int64(sleepersBefore) + int64(listenersBefore-awakeBefore)

	if st.limited {
		newDeaths = st.sweepDeaths(age)
	}
	return newDeaths
}

// CheckPartition tests whether the alive nodes still form one mutually
// reachable component on g and records the partition round if not. Call
// after a round that had deaths; no-ops once recorded or when fewer than
// two nodes remain.
func (st *State) CheckPartition(g graph.Implicit, sessionRound int) {
	if !st.trackPartition || st.partition >= 0 || st.n-st.dead < 2 {
		return
	}
	dg, _ := g.(*graph.Digraph)
	seen := st.bfsSeen[:st.n]
	clear(seen)
	var root graph.NodeID = -1
	for v := 0; v < st.n; v++ {
		if st.status[v] != statusDead {
			root = graph.NodeID(v)
			break
		}
	}
	queue := st.bfsQueue[:0]
	queue = append(queue, root)
	seen[root] = true
	reached := 1
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		var row []graph.NodeID
		if dg != nil {
			row = dg.Out(u)
		} else {
			st.bfsRow = g.AppendOut(u, st.bfsRow[:0])
			row = st.bfsRow
		}
		for _, w := range row {
			if !seen[w] && st.status[w] != statusDead {
				seen[w] = true
				reached++
				queue = append(queue, w)
			}
		}
	}
	st.bfsQueue = queue[:0]
	if reached < st.n-st.dead {
		st.partition = st.base + sessionRound
	}
}

// Report snapshots the accounting into a fresh Report (the only allocating
// read path; call once per Run, like Result.PerNodeTx).
func (st *State) Report() *Report {
	rep := &Report{
		Model:           st.model,
		TxEnergy:        st.model.Tx * float64(st.txEvents),
		RxEnergy:        st.model.Rx * float64(st.rxEvents),
		ListenEnergy:    st.model.Listen * float64(st.listenNodeRounds),
		SleepEnergy:     st.model.Sleep * float64(st.sleepNodeRounds),
		DeadCount:       st.dead,
		FirstDeathRound: st.firstDeath,
		HalfDeathRound:  st.halfDeath,
		PartitionRound:  st.partition,
		Spent:           make([]float64, st.n),
	}
	for v := 0; v < st.n; v++ {
		rep.Spent[v] = st.spendAt(graph.NodeID(v), st.round)
	}
	if st.limited {
		rep.Residual = make([]float64, st.n)
		for v := range rep.Residual {
			r := st.budget[v] - rep.Spent[v]
			if r < 0 {
				r = 0
			}
			rep.Residual[v] = r
		}
	}
	return rep
}

// --- lazy per-node accounting ---

// rate returns v's passive per-round drain under its current status
// (schedule-free; scheduled listeners go through passiveSpend).
func (st *State) rate(v graph.NodeID) float64 {
	switch st.status[v] {
	case statusListening:
		return st.model.Listen
	case statusInformed:
		return st.model.Sleep
	}
	return 0
}

// awakeListenersAt returns the number of alive listening nodes awake in age
// round `age` under the active schedule: Σ over phase classes, O(Period).
func (st *State) awakeListenersAt(age int) int {
	var awake int64
	for c, cnt := range st.listenPhase {
		if cnt != 0 && st.sched.awakeAt(c, age) {
			awake += cnt
		}
	}
	return int(awake)
}

// passiveSpend returns v's passive drain over age rounds [from, to] under
// its current status: constant-rate, except for a duty-cycled listener,
// whose awake rounds (Listen) and asleep rounds (Sleep) are counted in
// closed form.
func (st *State) passiveSpend(v graph.NodeID, from, to int) float64 {
	d := to - from + 1
	if d <= 0 {
		return 0
	}
	if st.hasSched && st.status[v] == statusListening {
		aw := st.sched.awakeIn(st.sched.classOf(v), from, to)
		return st.model.Listen*float64(aw) + st.model.Sleep*float64(int64(d)-aw)
	}
	return st.rate(v) * float64(d)
}

// fold materialises v's passive drain through age round `through`.
func (st *State) fold(v graph.NodeID, through int) {
	if through > int(st.anchor[v]) {
		st.spent[v] += st.passiveSpend(v, int(st.anchor[v])+1, through)
		st.anchor[v] = int32(through)
	}
}

// spendAt returns v's cumulative spend through age round `age` without
// mutating state.
func (st *State) spendAt(v graph.NodeID, age int) float64 {
	if age <= int(st.anchor[v]) {
		return st.spent[v]
	}
	return st.spent[v] + st.passiveSpend(v, int(st.anchor[v])+1, age)
}

// charge bills v for an active round (transmit or receive): passive rounds
// up to age-1 at the current status's rate, then the event cost for round
// age. The caller adjusts status and population counts afterwards, then
// re-predicts v's key while keyed is set.
func (st *State) charge(v graph.NodeID, age int, cost float64) {
	st.fold(v, age-1)
	st.spent[v] += cost
	st.anchor[v] = int32(age)
}

// --- depletion detection ---

// predictKey returns the age round at whose end v's passive drain alone
// reaches its budget (neverRound when it cannot). Predictions may be off by
// float rounding; sweepDeaths verifies before killing.
func (st *State) predictKey(v graph.NodeID) int64 {
	if st.status[v] == statusDead {
		return neverRound
	}
	left := st.budget[v] - depleteEps - st.spent[v]
	if left <= 0 {
		return int64(st.anchor[v])
	}
	if st.hasSched && st.status[v] == statusListening {
		return st.predictScheduled(v, left)
	}
	rho := st.rate(v)
	if rho <= 0 {
		return neverRound
	}
	k := math.Ceil(left / rho)
	if k > float64(neverRound)/2 {
		return neverRound
	}
	return int64(st.anchor[v]) + int64(k)
}

// predictScheduled inverts a duty-cycled listener's periodic drain: any
// Period consecutive rounds cost exactly cyc = Listen·On + Sleep·(Period-On),
// so jump whole cycles to just below the budget and walk the remaining
// <= 2 cycles round by round (O(Period), exact). The fallback return after
// the walk bound is conservative-early, which sweepDeaths tolerates.
func (st *State) predictScheduled(v graph.NodeID, left float64) int64 {
	p := &st.sched
	cyc := st.model.Listen*float64(p.On) + st.model.Sleep*float64(p.Period-p.On)
	if cyc <= 0 {
		return neverRound
	}
	full := math.Floor(left/cyc) - 1
	if full < 0 {
		full = 0
	}
	if full > float64(neverRound)/2/float64(p.Period) {
		return neverRound
	}
	c := p.classOf(v)
	r := int64(st.anchor[v]) + int64(full)*int64(p.Period)
	acc := full * cyc
	for i := 0; i < 3*p.Period+2; i++ {
		r++
		if p.awakeAt(c, int(r)) {
			acc += st.model.Listen
		} else {
			acc += st.model.Sleep
		}
		if acc >= left {
			return r
		}
	}
	return r
}

// setHorizon marks the keys stale and sets nextCheck to the first age round
// in which a node could reach its budget. A round costs a node at most the
// largest state cost, so the alive node with the least charge left needs at
// least left/top rounds to spend it; the factor 2 absorbs float rounding in
// the folded spends. Before the horizon every event skips its key update.
func (st *State) setHorizon() {
	st.keyed = false
	if !st.limited {
		return
	}
	left := math.Inf(1)
	for v := 0; v < st.n; v++ {
		if st.status[v] != statusDead {
			left = min(left, st.budget[v]-depleteEps-st.spent[v])
		}
	}
	m := st.model
	h := math.Floor(left / (2 * max(m.Tx, m.Rx, m.Listen, m.Sleep)))
	switch {
	case !(h > 0): // a node may reach its budget in the next round
		st.nextCheck = int64(st.round)
	case h > float64(neverRound)/2:
		st.nextCheck = neverRound
	default:
		st.nextCheck = int64(st.round) + int64(h)
	}
}

// sweepDeaths retires every node whose spend reached its budget by the end
// of age round `age`. Deaths take effect at the round's end: the dying
// node's round-age activity already happened and was charged. Rounds
// before nextCheck cost nothing. The first round that reaches the horizon
// predicts every key; from then on, a round that reaches nextCheck scans
// every key once and re-tightens the bound.
func (st *State) sweepDeaths(age int) (deaths int) {
	due := int64(age)
	if due < st.nextCheck {
		return 0
	}
	if !st.keyed {
		for v := range st.key {
			st.key[v] = st.predictKey(graph.NodeID(v))
		}
		st.keyed = true
	}
	next := int64(neverRound)
	for i, k := range st.key {
		if k <= due {
			v := graph.NodeID(i)
			if st.spendAt(v, age) >= st.budget[v]-depleteEps {
				st.kill(v, age)
				deaths++
				continue
			}
			// The prediction was early (float slack, or predictScheduled's
			// conservative fallback): look again next round.
			k = due + 1
			st.key[v] = k
		}
		next = min(next, k)
	}
	st.nextCheck = next
	return deaths
}

// kill retires v at the end of age round `age`.
func (st *State) kill(v graph.NodeID, age int) {
	st.fold(v, age)
	if st.status[v] == statusListening {
		st.aliveListening--
		st.noteListenExit(v)
	} else {
		st.aliveInformed--
	}
	st.status[v] = statusDead
	st.dead++
	if st.firstDeath < 0 {
		st.firstDeath = age
	}
	if st.halfDeath < 0 && 2*st.dead >= st.n {
		st.halfDeath = age
	}
	st.key[v] = neverRound
}

// fixKey re-predicts v's death round and keeps nextCheck a lower bound.
// Events call it only while keyed is set: before the horizon no key is
// read, and the sweep that reaches it predicts them all.
func (st *State) fixKey(v graph.NodeID) {
	k := st.predictKey(v)
	st.key[v] = k
	st.nextCheck = min(st.nextCheck, k)
}
