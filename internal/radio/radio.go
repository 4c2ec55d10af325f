// Package radio implements the synchronous radio-network model of §1.2 of
// the paper as a discrete-round simulator.
//
// Model semantics, implemented literally:
//
//   - Time proceeds in synchronous rounds 1, 2, 3, ...
//   - In each round every informed node locally decides whether to transmit.
//   - A node v receives a message in a round iff exactly ONE of its
//     in-neighbours transmits in that round. If two or more transmit, the
//     messages collide and v hears nothing; v cannot even detect the
//     collision.
//   - A transmitting node cannot simultaneously receive (half-duplex
//     radios). In broadcast this never matters, since only informed nodes
//     transmit; GossipOptions.FullDuplex lifts it for gossip.
//   - Nodes know n (and protocol parameters like p or D) but nothing about
//     the topology.
//
// The engine accounts energy as the paper does: the total number of
// transmissions and the per-node transmission counts.
//
// # Decision phase
//
// Most of the paper's protocols are Bernoulli-style: in a given round every
// eligible node transmits independently with some probability q. The
// per-node path (one virtual ShouldTransmit call and one RNG draw per
// informed node per round) is then pure overhead: geometric-skip sampling
// can draw the ~nq transmitters directly. Every such protocol implements
// BatchBroadcaster, and the engine collects the round's transmitters in one
// AppendTransmitters call. The per-node ShouldTransmit loop serves only
// protocols without it (Decay and test protocols). For a BatchBroadcaster,
// ShouldTransmit stays the paper-literal oracle: asked for every informed
// node, it reports the AppendTransmitters list (the shared-draw contract,
// see BatchBroadcaster), which a per-round oracle test pins. The protocols
// draw that list through TxSet, which keeps nothing but the list: its
// membership answer is a scan of it, a cost the engine never pays because
// it never asks ShouldTransmit of a BatchBroadcaster.
//
// # The sparse round engine
//
// Delivery is direction-optimizing: per round the engine compares the
// transmitters' out-degree sum against the uninformed frontier's in-degree
// sum (tracked incrementally) and picks the cheaper kernel — push
// (radio.go), parallel push (parallel.go), the receiver-centric pull kernel
// over the frontier list (frontier.go), or, from ⌈n/64⌉ transmitter edges
// on a materialized graph, the word-parallel dense kernel (dense.go). The
// out-degree sum is taken only until it passes the one threshold that can
// still change the choice (priceLimit), and on a materialized graph the
// frontier's sum starts each segment as M() minus the informed nodes'
// in-degrees, so neither prices more than the choice needs.
//
// A round whose kernel result is already known runs no kernel: when its
// transmitter list (after the battery filter) equals the previous round's
// element by element, both rounds are in one Run segment, the previous
// round's kernel delivered nothing before any veto, and the channel has no
// per-edge draw (no LossyChannel), the round delivers nothing and reports
// the previous round's collision count without pricing. A kernel's output
// and the kernel choice are pure functions of the graph, the transmitter
// list, the informed set and the channel's capabilities; an empty delivery
// changes neither the informed set nor the pull estimate; and delivered ids
// come out sorted whatever the transmitter order. The segment condition
// covers callers that rebuild the graph in place between segments. This
// serves the rounds of a livelocked flood (experiment C1). Everything after
// the kernel runs as in any round: the Jammed callback, the receiver
// vetoes, OnInformed, tracer callbacks, history rows and the energy
// accounting.
//
// Every round is executed, with one exception that waits for ROADMAP item
// 10 (the next change to bench/): an energy-free FixedProb run still skips
// fully silent rounds in O(1) through UniformRound. All configurations are
// bit-identical on the informed trajectory, per-node transmissions, rounds
// and energy; only Result.Collisions is kernel-dependent (see its contract).
//
// # The channel layer
//
// The exactly-one reception rule is the default of a pluggable channel
// layer (reception.go): Options.Reception selects a ReceptionModel —
// Binary (the paper), Fade (per-receiver deep fades), LossyChannel
// (per-edge fading), SINRThreshold (equal-power capture), Jam (random
// receiver jamming). Channel randomness is hashed per (seed, round,
// endpoints) rather than drawn from a stream, so every kernel and every
// engine forcing agree bit-for-bit under every model; Binary resolves to
// the unmodified hot paths. A listener
// duty-cycle schedule (energy.Spec.Schedule) additionally vetoes
// deliveries to receivers whose radio is scheduled asleep.
package radio

import (
	"fmt"
	"slices"

	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Broadcaster is a broadcast protocol driven by the engine. Implementations
// hold all per-node protocol state (active/passive, informing times, ...).
//
// The engine guarantees:
//   - Begin is called exactly once per run, before any other method.
//   - OnInformed(0, src) is called for the source before round 1.
//   - BeginRound(r) is called once at the start of round r = 1, 2, ...
//   - The decision phase then either calls ShouldTransmit(r, v) exactly once
//     for every informed node v in informing order, or — when the protocol
//     implements BatchBroadcaster — calls AppendTransmitters once instead.
//   - OnInformed(r, v) is called at the end of round r for every node v
//     that received the message for the first time in round r.
//
// To keep protocols oblivious (as the paper requires), Begin receives only
// the network size, never the topology.
type Broadcaster interface {
	// Name identifies the protocol in results and tables.
	Name() string
	// Begin resets protocol state for a fresh run on an n-node network.
	// All protocol randomness must come from r.
	Begin(n int, src graph.NodeID, r *rng.RNG)
	// BeginRound announces the start of round `round` (1-based). Protocols
	// that draw a shared per-round value (like Algorithm 3's selection
	// sequence I_r) do it here.
	BeginRound(round int)
	// ShouldTransmit reports whether informed node v transmits this round.
	ShouldTransmit(round int, v graph.NodeID) bool
	// OnInformed tells the protocol that v received the message for the
	// first time at the end of `round` (0 for the source).
	OnInformed(round int, v graph.NodeID)
	// Quiesced reports that the protocol will never transmit again (all
	// nodes passive); the engine then stops early. `round` is the round
	// that just finished.
	Quiesced(round int) bool
}

// BatchBroadcaster is the decision-phase fast path. When a Broadcaster
// implements it, the engine replaces the per-informed-node ShouldTransmit
// loop with a single AppendTransmitters call per round.
//
// Contract (the shared-draw scheme): for any round, AppendTransmitters must
// append exactly the nodes for which ShouldTransmit reports true, in the
// same (informing) order — the practical recipe is to draw the round's
// transmitter set once, in BeginRound, and have both ShouldTransmit and
// AppendTransmitters read from it. A per-round oracle test enforces this
// for every implementation in core and baseline.
type BatchBroadcaster interface {
	Broadcaster
	// AppendTransmitters appends this round's transmitters to dst and
	// returns the extended slice. informed is the engine's informed list in
	// informing order; protocols that track their own eligible sets may
	// ignore it.
	AppendTransmitters(round int, informed []graph.NodeID, dst []graph.NodeID) []graph.NodeID
}

// UniformRound lets the engine skip provably silent rounds in O(1): a
// protocol whose every round is one shared Bernoulli(q) draw over its
// candidate list, taken through TxSet's stream contract, reports how far
// the carried gap reaches. Only baseline.FixedProb implements it, and the
// engine consults it only for runs without energy accounting. It stays
// because bench/e2e wraps it; it goes with ROADMAP item 10 (the next change
// to bench/).
type UniformRound interface {
	Broadcaster
	// RoundProb reports the shared per-candidate transmit probability of
	// `round`, with ok == false when the round is not a uniform Bernoulli
	// round (flood phases, one-shot phases, exhausted schedules).
	RoundProb(round int) (q float64, ok bool)
	// SkipSilent advances protocol state from round `from` across rounds
	// that are provably silent under the stream contract, up to round `to`
	// inclusive, and returns the first round the engine must execute
	// normally (to+1 when the whole span is silent). Implementations must
	// stop AT (i.e. return, not skip past) any round in which a transmission
	// is pending, the round is not uniform, or Quiesced could first report
	// true at the round's end — the engine executes that round through the
	// ordinary per-round path, which continues from the same stream state.
	SkipSilent(from, to int) int
}

// DeliveryKernel names a delivery implementation for EngineOverrides.
type DeliveryKernel int

const (
	// KernelAuto lets the engine pick per round from the cost estimates
	// (the default): pull when the uninformed frontier's in-degree sum
	// undercuts the transmitters' out-degree sum; the word-parallel dense
	// kernel when the transmitters' out-degree sum reaches ⌈n/64⌉ (the word
	// count of its resolution pass) on a materialized graph under a
	// dense-capable channel model (see dense.go); push otherwise (parallel
	// push when Options.Parallel). See chooseKernel.
	KernelAuto DeliveryKernel = iota
	// KernelPush forces the serial transmitter-centric kernel.
	KernelPush
	// KernelPull forces the receiver-centric frontier kernel.
	KernelPull
	// KernelParallel forces the receiver-sharded parallel push kernel.
	KernelParallel
	// KernelDense forces the word-parallel carry-save dense kernel for every
	// round the channel model supports (maxHits == 1, no per-edge filter);
	// unsupported models fall back to serial push.
	KernelDense
)

// EngineOverrides force specific broadcast delivery paths, for the
// equivalence tests and for debugging. All combinations are bit-identical
// on the informed trajectory, per-node transmissions, rounds and energy
// report; only Result.Collisions may differ under KernelPull (see the
// Result.Collisions contract). The decision path is not forceable: it
// follows from whether the protocol implements BatchBroadcaster. Gossip has
// one decision path and one kernel and ignores every override.
type EngineOverrides struct {
	// Kernel pins the broadcast delivery kernel instead of the per-round
	// cost model. Every reception model is served by every kernel (channel
	// draws are hashed, not streamed — see reception.go), so the pin is
	// total.
	Kernel DeliveryKernel
	// DisableSkip forces round-by-round execution of the only runs that
	// skip silent rounds: energy-free UniformRound (FixedProb) runs. It
	// goes with UniformRound in ROADMAP item 10.
	DisableSkip bool
}

// engineOverrides is the active override set; see SetEngineOverrides.
var engineOverrides EngineOverrides

// SetEngineOverrides globally forces engine code paths. Call only while no
// simulations are running; every configuration must produce identical
// results (up to the Result.Collisions contract under KernelPull), which is
// what the engine equivalence tests pin.
func SetEngineOverrides(o EngineOverrides) { engineOverrides = o }

// Options configures a simulation run (one session segment).
type Options struct {
	// MaxRounds caps the segment length. Required (> 0). The run continues
	// past the round that informs every node until the protocol quiesces or
	// MaxRounds elapses, so that energy is accounted for the full protocol
	// schedule (nodes cannot know the broadcast completed).
	MaxRounds int
	// StopWhenInformed stops the run as soon as every node is informed. Use
	// for time-only measurements where trailing energy is not of interest.
	StopWhenInformed bool
	// RecordHistory captures per-round statistics in Result.History.
	RecordHistory bool
	// Parallel selects the sharded parallel delivery kernel (see
	// parallel.go). Results are identical to the serial kernel.
	Parallel bool
	// Workers is the parallel kernel's worker count (0 = GOMAXPROCS).
	Workers int
	// Reception selects the channel's reception model (see ReceptionModel
	// in reception.go). Nil means Binary() — the paper's exactly-one rule.
	// Every model runs on every kernel.
	Reception ReceptionModel
	// Jammed, when non-nil, returns the receivers whose channel is occupied
	// by external interference in the given round: a jammed node cannot
	// receive that round (the noise collides with any transmission). The
	// engine calls it once per executed round, even when the round delivers
	// nothing, and does not keep the returned slice after the round, so the
	// callback may reuse one buffer.
	Jammed func(round int) []graph.NodeID
	// Energy, when non-nil, enables the per-round radio energy model (see
	// internal/energy): every alive node is charged for exactly one state
	// per round (transmit / receive / listen / sleep), depleted nodes stop
	// transmitting (and, unless Spec.DeadReceive, stop receiving), and
	// Result.Energy reports totals, per-node residual charge and the
	// network-lifetime rounds. The spec is captured by the session on its
	// FIRST Run segment; later segments must pass the same pointer or nil.
	// Spec.Resume carries one battery bank across sessions (repeated
	// campaigns). The session stops early once every node has depleted.
	Energy *energy.Spec
	// Tracer, when non-nil, receives per-event callbacks (see Tracer). Use
	// internal/trace for ready-made recorders.
	Tracer Tracer
}

// Tracer observes engine events for debugging and visualisation. Callbacks
// run synchronously inside the round loop; keep them cheap.
type Tracer interface {
	// RoundStart fires at the beginning of every simulated round.
	RoundStart(round int)
	// Transmit fires for every transmission decision.
	Transmit(round int, v graph.NodeID)
	// Deliver fires for every first-time reception.
	Deliver(round int, v graph.NodeID)
	// RoundEnd fires after delivery with the round's aggregate counts.
	RoundEnd(round, transmitters, delivered, collisions int)
}

func (o Options) validate() error {
	if o.MaxRounds <= 0 {
		return fmt.Errorf("radio: MaxRounds must be positive, got %d", o.MaxRounds)
	}
	return nil
}

// RoundStat is one row of a run's history.
type RoundStat struct {
	Round         int
	Transmitters  int
	NewlyInformed int
	Informed      int // cumulative, end of round
	Collisions    int // nodes that heard >= 2 transmitters this round
}

// Result summarises one broadcast run.
type Result struct {
	Protocol      string
	Rounds        int   // rounds actually executed
	InformedRound int   // first round in which every node is informed; -1 if never
	Informed      int   // final informed count
	TotalTx       int64 // total transmissions over the whole run
	MaxNodeTx     int   // maximum transmissions by any single node
	PerNodeTx     []int32
	// Collisions counts receivers that heard >= 2 transmitters in a round,
	// summed over rounds. Contract: rounds delivered by the receiver-centric
	// pull kernel count collisions at UNINFORMED receivers only (the only
	// ones the kernel examines). The engine uses pull only when no consumer
	// needs the transmitter-side count — set RecordHistory or a Tracer to
	// force exact counting at every receiver.
	Collisions int64
	History    []RoundStat    // non-nil iff Options.RecordHistory
	Energy     *energy.Report // non-nil iff the session ran with Options.Energy
}

// Completed reports whether every node was informed.
func (r *Result) Completed() bool { return r.InformedRound >= 0 }

// TxPerNode returns the mean transmissions per node (0 for a zero-value or
// PerNodeTx-less result, never NaN).
func (r *Result) TxPerNode() float64 {
	if len(r.PerNodeTx) == 0 {
		return 0
	}
	return float64(r.TotalTx) / float64(len(r.PerNodeTx))
}

// Scratch parks one BroadcastSession and one GossipSession for reuse across
// trials. The experiment harness keeps one Scratch per worker:
// NewBroadcastSessionWith and NewGossipSessionWith reset the parked session
// of their kind in place when its node count matches, and park a fresh one
// otherwise. So at most one session of each kind may use a Scratch at a
// time, and a session's Result must be consumed before the Scratch hosts
// the next session of that kind.
type Scratch struct {
	broadcast *BroadcastSession
	gossip    *GossipSession
}

// NewScratch returns an empty scratch; sessions are parked on first use.
func NewScratch() *Scratch { return &Scratch{} }

// BroadcastSession carries broadcast state — the informed set, the protocol
// instance, the round clock, and the energy accounting — across multiple Run
// segments, so the topology may change between segments. This models the
// paper's mobile-network setting (§1: "due to the mobility of the nodes, the
// network topology changes over time"): the oblivious protocols never see
// the graph, so their state is meaningful across re-wirings.
type BroadcastSession struct {
	n        int
	proto    Broadcaster
	batch    BatchBroadcaster // non-nil when proto implements the fast path
	chanSeed uint64           // channel-draw seed, separate from protocol RNG

	informed     Bitset
	informedList []graph.NodeID
	txbuf        []graph.NodeID // per-round transmitter scratch
	prevTx       []graph.NodeID // the previous round's transmitters; Run swaps it with txbuf
	jamMark      Bitset         // dropJammed's marks, clear between rounds; made on the first jammed segment
	rounds       int            // absolute round clock across segments
	quiesced     bool

	totalTx    int64
	perNodeTx  []int32
	collisions int64

	informedAt int // absolute round in which every node was informed; -1 until then

	energy     *energy.State // non-nil once an energy spec was captured
	energySpec *energy.Spec  // the captured spec, for mid-session change detection
	bank       *energy.State // storage for the banks this session starts itself

	st  *deliveryState
	fr  *frontierState
	par *parallelDeliverer // created on the first parallel segment
	dn  *denseState        // created on the first dense round

	// Pull-kernel cost tracking: Σ InDegree over uninformed nodes for the
	// current Run segment's graph, decremented as nodes are informed.
	uninSum int64
}

// newBroadcastSession allocates the storage of an n-node session.
func newBroadcastSession(n int) *BroadcastSession {
	return &BroadcastSession{
		n:          n,
		informed:   NewBitset(n),
		perNodeTx:  make([]int32, n),
		informedAt: -1,
		st:         newDeliveryState(n),
		fr:         newFrontierState(n),
	}
}

// reset returns a parked session to the state newBroadcastSession leaves
// it in, keeping its buffers, kernels and battery-bank storage.
func (s *BroadcastSession) reset() {
	s.informed.Reset()
	clear(s.perNodeTx)
	s.fr.reset()
	*s = BroadcastSession{
		n:            s.n,
		informed:     s.informed,
		informedList: s.informedList[:0],
		txbuf:        s.txbuf[:0],
		prevTx:       s.prevTx[:0],
		jamMark:      s.jamMark,
		perNodeTx:    s.perNodeTx,
		informedAt:   -1,
		bank:         s.bank,
		st:           s.st,
		fr:           s.fr,
		par:          s.par,
		dn:           s.dn,
	}
}

// NewBroadcastSession starts a session: protocol p is initialised for an
// n-node network with the given source already informed (at round 0).
func NewBroadcastSession(n int, src graph.NodeID, p Broadcaster, protoRNG *rng.RNG) *BroadcastSession {
	return NewBroadcastSessionWith(nil, n, src, p, protoRNG)
}

// NewBroadcastSessionWith is NewBroadcastSession on the broadcast session
// parked in sc (see Scratch); sc may be nil for one-shot sessions.
func NewBroadcastSessionWith(sc *Scratch, n int, src graph.NodeID, p Broadcaster, protoRNG *rng.RNG) *BroadcastSession {
	if n < 1 {
		panic("radio: broadcast session needs n >= 1")
	}
	if src < 0 || int(src) >= n {
		panic("radio: source out of range")
	}
	var s *BroadcastSession
	switch {
	case sc == nil:
		s = newBroadcastSession(n)
	case sc.broadcast != nil && sc.broadcast.n == n:
		s = sc.broadcast
		s.reset()
	default:
		s = newBroadcastSession(n)
		sc.broadcast = s
	}
	s.proto = p
	s.batch, _ = p.(BatchBroadcaster)
	p.Begin(n, src, protoRNG)
	// One Split keeps protocol-stream consumption identical to every prior
	// release; the child's first draw seeds the hashed channel layer, so
	// channel randomness is a pure function of the protocol seed (resume-
	// and kernel-independent; see reception.go).
	s.chanSeed = protoRNG.Split(0xc4a881e1).Uint64()
	s.informed.Set(src)
	s.informedList = append(s.informedList, src)
	p.OnInformed(0, src)
	s.noteInformedAll()
	return s
}

// Informed returns the current informed-node count.
func (s *BroadcastSession) Informed() int { return len(s.informedList) }

// Rounds returns the absolute round clock.
func (s *BroadcastSession) Rounds() int { return s.rounds }

// Quiesced reports whether the protocol has retired every node.
func (s *BroadcastSession) Quiesced() bool { return s.quiesced }

// EnergyState returns the session's battery bank (nil when the energy model
// is disabled). Pass it as energy.Spec{Resume: ...} to a later session to
// model repeated campaigns on one charge. When the session came from a
// Scratch, a bank it started itself is storage the parked session reuses:
// it stays valid only until the scratch hosts another *energy-enabled*
// session that does not resume it.
func (s *BroadcastSession) EnergyState() *energy.State { return s.energy }

// initEnergy captures an energy spec on the session's first segment.
func (s *BroadcastSession) initEnergy(spec *energy.Spec) {
	if s.rounds > 0 {
		panic("radio: Options.Energy must be supplied from the session's first Run segment")
	}
	if spec.Resume != nil {
		if spec.Resume.N() != s.n {
			panic("radio: resumed energy state sized for a different network")
		}
		spec.Resume.Rebase()
		s.energy = spec.Resume
	} else {
		if s.bank == nil {
			s.bank = energy.NewState()
		}
		s.bank.Start(*spec, s.n)
		s.energy = s.bank
	}
	s.energySpec = spec
	// Nodes informed before round 1 (the source) never pay a receive cost
	// and sleep from the start.
	for _, v := range s.informedList {
		s.energy.NoteInformed(v, 0)
	}
}

// Run executes up to opt.MaxRounds further rounds on graph g (which must
// have the session's node count but may differ from previous segments'
// graphs). The returned Result reflects the cumulative session state;
// Result.Rounds is the absolute round clock and Result.History (if
// recorded) covers this segment only.
//
// g may be any graph.Implicit — a materialized *graph.Digraph or an
// implicit view that re-derives rows on demand. Every kernel takes the
// zero-copy CSR path when g is a *Digraph, so the materialized hot loops
// are unchanged; implicit graphs enumerate rows into reusable buffers. The
// pull cost model needs Σ in-degree over the uninformed set, so it engages
// only when g.CheapIn() reports in-rows affordable — push-only otherwise
// (implicit G(n,p) without its transpose index), which is exactly the
// access pattern that keeps planet-scale runs O(n) in memory.
func (s *BroadcastSession) Run(g graph.Implicit, opt Options) *Result {
	if err := opt.validate(); err != nil {
		panic(err)
	}
	if g.N() != s.n {
		panic("radio: graph size does not match broadcast session")
	}
	// The channel model, resolved once per segment into the capabilities
	// the kernels consult. Binary resolves to {nil, nil, 1} — the
	// unmodified hot paths.
	model := opt.Reception
	if model == nil {
		model = Binary()
	}
	caps := model.resolve(s.chanSeed)
	parallel := opt.Parallel || engineOverrides.Kernel == KernelParallel
	if parallel {
		// A later segment, or a later session on a parked one, may ask for
		// a different worker count than the kept deliverer was built with.
		if w := parallelWorkers(opt.Workers); s.par == nil || s.par.workers != w {
			s.par = newParallelDeliverer(s.n, w)
		}
	}
	// Collision-exactness consumers pin transmitter-side kernels (see the
	// Result.Collisions contract); an explicit override forcing wins.
	exactCollisions := opt.RecordHistory || opt.Tracer != nil
	// The pull kernel's cost estimate: Σ in-degree over uninformed nodes,
	// recomputed per segment whenever adaptive pull is reachable — callers
	// may rebuild the SAME *Digraph in place between segments (graph.Scratch
	// reuse is exactly what the mobility epochs do), so pointer identity
	// cannot prove the topology is unchanged. O(n/64 + uninformed) per Run,
	// then maintained incrementally in the round loop. Segments that can
	// never consult it (forced kernels, exact-collision consumers, graphs
	// whose in-rows are expensive) skip the scan.
	dg, _ := g.(*graph.Digraph)
	trackUnin := engineOverrides.Kernel == KernelAuto &&
		!exactCollisions && g.CheapIn()
	if trackUnin {
		s.uninSum = uninformedInSum(g, s.informed, s.informedList)
	}
	if opt.Energy != nil {
		if s.energy == nil {
			s.initEnergy(opt.Energy)
		} else if opt.Energy != s.energySpec {
			panic("radio: Options.Energy changed mid-session (pass the same *energy.Spec or nil on later segments)")
		}
	}
	en := s.energy // nil keeps the whole model off the hot path
	if opt.Jammed != nil && s.jamMark == nil {
		s.jamMark = NewBitset(s.n)
	}

	res := &Result{Protocol: s.proto.Name()}
	if opt.RecordHistory {
		res.History = append(res.History, RoundStat{Round: s.rounds, Informed: len(s.informedList)})
	}

	transmitters, prevTx := s.txbuf, s.prevTx
	// idle says the previous round executed in this segment ran a kernel
	// that delivered nothing, before any veto, under a channel without
	// per-edge draws; idleColl is that kernel's collision count. A round
	// repeating its transmitters has the same kernel output (see the
	// package notes); rounds skipped as silent in between change none of
	// its inputs. A segment may run on a graph rebuilt in place, so idle
	// starts false in every Run.
	idle, idleColl := false, 0
	// Silent-round skipping (UniformRound, until ROADMAP item 10) applies
	// only when no energy state must be charged for the skipped rounds and
	// no per-round observer (history rows, tracer callbacks, jamming
	// queries) would notice them missing.
	skipper, _ := s.proto.(UniformRound)
	canSkip := skipper != nil && !engineOverrides.DisableSkip && en == nil &&
		opt.Tracer == nil && !opt.RecordHistory && opt.Jammed == nil
	segEnd := s.rounds + opt.MaxRounds
	for s.rounds < segEnd && !s.quiesced && !(opt.StopWhenInformed && s.informedAt >= 0) {
		round := s.rounds + 1
		if _, uniform := uniformProb(skipper, canSkip, round); uniform {
			if next := skipper.SkipSilent(round, segEnd); next > round {
				if next > segEnd+1 {
					next = segEnd + 1
				}
				s.rounds = next - 1
				if s.rounds >= segEnd {
					break
				}
				round = next
			}
		}
		s.rounds = round
		s.proto.BeginRound(round)
		if opt.Tracer != nil {
			opt.Tracer.RoundStart(round)
		}

		// Decision phase: informedList is in informing order; the per-node
		// loop, which serves only protocols without AppendTransmitters,
		// iterates it so protocol RNG consumption is deterministic.
		// Protocol decisions (and randomness) are drawn before the battery
		// veto, so the energy model never perturbs a protocol's schedule —
		// a depleted radio just fails to emit.
		transmitters, prevTx = prevTx[:0], transmitters
		if s.batch != nil {
			transmitters = s.batch.AppendTransmitters(round, s.informedList, transmitters)
		} else {
			for _, v := range s.informedList {
				if s.proto.ShouldTransmit(round, v) {
					transmitters = append(transmitters, v)
				}
			}
		}
		if en != nil {
			transmitters = en.FilterAlive(transmitters)
		}
		for _, v := range transmitters {
			s.perNodeTx[v]++
		}
		if opt.Tracer != nil {
			for _, v := range transmitters {
				opt.Tracer.Transmit(round, v)
			}
		}
		s.totalTx += int64(len(transmitters))

		// Delivery phase. (Half- vs full-duplex is immaterial for broadcast:
		// every transmitter is already informed, so it can never be a first-
		// time receiver. The distinction matters for gossip; see gossip.go.)
		// Kernel selection is direction-optimizing (chooseKernel): pull once
		// the frontier's in-degree sum undercuts the transmitters' out-degree
		// sum (the late phase), dense once that out-degree sum reaches
		// ⌈n/64⌉ on a materialized graph, push otherwise. Every kernel
		// resolves receptions through the same channel capabilities, so
		// selection is model-independent. The returned slice is kernel
		// scratch, valid until the next round. A round that repeats an idle
		// round's transmitters (see idle) takes that round's empty output
		// and collision count without pricing or delivering.
		var delivered []graph.NodeID
		var collisions int
		if idle && slices.Equal(transmitters, prevTx) {
			collisions = idleColl
		} else {
			var outSum int64
			if engineOverrides.Kernel == KernelAuto && (trackUnin || dg != nil) {
				// O(|tx|) at most on a CSR; implicit rows pay for it only
				// when pull can. Pricing stops once the choice is settled.
				outSum = outDegSum(g, transmitters,
					priceLimit(s.n, len(transmitters), s.uninSum, trackUnin))
			}
			switch chooseKernel(engineOverrides.Kernel, len(transmitters), outSum, s.uninSum,
				s.n, trackUnin, dg != nil, parallel, denseOK(caps)) {
			case KernelPull:
				s.fr.sync(s.informed, s.n)
				delivered, collisions = s.fr.deliver(g, round, transmitters, caps)
			case KernelDense:
				if s.dn == nil {
					s.dn = newDenseState(s.n)
				}
				delivered, collisions = s.dn.deliver(g, transmitters, s.informed)
			case KernelParallel:
				delivered, collisions = s.par.deliver(g, round, transmitters, s.informed, caps)
			default:
				delivered, collisions = s.st.deliver(g, round, transmitters, s.informed, caps)
			}
			idle, idleColl = len(delivered) == 0 && caps.edgeOK == nil, collisions
		}
		// Receiver-side vetoes, applied before the frontier removal so a
		// vetoed node stays uninformed AND on the pull frontier: the jamming
		// callback, the model's receiver availability, the duty-cycle sleep
		// gate, and the battery.
		if opt.Jammed != nil {
			delivered = dropJammed(s.jamMark, delivered, opt.Jammed(round))
		}
		if caps.recvOK != nil {
			delivered = filterRecv(delivered, round, caps.recvOK)
		}
		if en != nil {
			if en.Scheduled() {
				// A listener whose radio is duty-cycled asleep this round
				// cannot decode; it keeps paying Sleep and stays uninformed.
				delivered = en.FilterAwake(delivered, round)
			}
			if !en.DeadReceive() {
				// A depleted radio is off: it cannot decode, so it never
				// joins the informed set (all kernels see the same filter).
				delivered = en.FilterAlive(delivered)
			}
		}
		s.collisions += int64(collisions)

		for _, v := range delivered {
			s.informed.Set(v)
			s.informedList = append(s.informedList, v)
			if trackUnin {
				if dg != nil {
					s.uninSum -= int64(dg.InDegree(v))
				} else {
					s.uninSum -= int64(g.InDegree(v))
				}
			}
			s.proto.OnInformed(round, v)
			if opt.Tracer != nil {
				opt.Tracer.Deliver(round, v)
			}
		}
		s.fr.remove(delivered)
		if opt.Tracer != nil {
			opt.Tracer.RoundEnd(round, len(transmitters), len(delivered), collisions)
		}

		if en != nil {
			if deaths := en.EndRound(round, transmitters, delivered); deaths > 0 {
				en.CheckPartition(g, round)
			}
		}

		if opt.RecordHistory {
			res.History = append(res.History, RoundStat{
				Round:         round,
				Transmitters:  len(transmitters),
				NewlyInformed: len(delivered),
				Informed:      len(s.informedList),
				Collisions:    collisions,
			})
		}
		s.noteInformedAll()
		if opt.StopWhenInformed && s.informedAt >= 0 {
			break
		}
		if s.proto.Quiesced(round) {
			s.quiesced = true
		}
		if en != nil && en.AliveCount() == 0 {
			// The whole network depleted: no transmission or reception can
			// ever happen again.
			break
		}
	}
	s.txbuf, s.prevTx = transmitters[:0], prevTx[:0]

	res.Rounds = s.rounds
	res.Informed = len(s.informedList)
	res.TotalTx = s.totalTx
	res.Collisions = s.collisions
	res.PerNodeTx = append([]int32(nil), s.perNodeTx...)
	if en != nil {
		res.Energy = en.Report()
	}
	res.InformedRound = s.informedAt
	for _, c := range res.PerNodeTx {
		if int(c) > res.MaxNodeTx {
			res.MaxNodeTx = int(c)
		}
	}
	return res
}

// noteInformedAll records the current round as the one that informed every
// node, the first time every node is informed.
func (s *BroadcastSession) noteInformedAll() {
	if s.informedAt < 0 && len(s.informedList) == s.n {
		s.informedAt = s.rounds
	}
}

// uniformProb asks a UniformRound protocol for the round's shared
// probability when skipping is enabled; (0, false) otherwise. It goes with
// UniformRound in ROADMAP item 10.
func uniformProb(u UniformRound, enabled bool, round int) (float64, bool) {
	if !enabled {
		return 0, false
	}
	return u.RoundProb(round)
}

// chooseKernel is the per-round delivery-kernel policy. It is a pure
// function of work counts and capability flags and never of a machine
// measurement such as Calibrate, so which kernel serves a round — and with
// it Result.Collisions under pull — is the same on every host.
//
// forced is the EngineOverrides pin, tx the transmitter count, outSum their
// out-degree sum, uninSum the pull estimate Σ indeg(uninformed) (read only
// when trackUnin), and n the node count; materialized says g is a CSR
// *graph.Digraph, parallel that rounds-parallel delivery was asked for, and
// dense that denseOK holds for the channel. The transmitter-side fallback is
// parallel push when parallel, serial push otherwise.
func chooseKernel(forced DeliveryKernel, tx int, outSum, uninSum int64, n int, trackUnin, materialized, parallel, dense bool) DeliveryKernel {
	push := KernelPush
	if parallel {
		push = KernelParallel
	}
	switch forced {
	case KernelPull:
		return KernelPull
	case KernelDense:
		// Forced dense runs every round the channel resolves exactly.
		if dense {
			return KernelDense
		}
		return push
	case KernelPush, KernelParallel:
		return push
	}
	if tx == 0 {
		return push
	}
	if trackUnin && uninSum+int64(tx) < outSum {
		return KernelPull
	}
	// Dense pays one resolution pass over the ⌈n/64⌉ words of its bit
	// planes whatever the round's density, and saves per edge over push, so
	// it is admitted once the round has that many edges. The out-degree scan
	// that prices it is O(1) per node only on a CSR, and rounds-parallel
	// keeps its shards.
	if dense && materialized && !parallel && outSum >= int64(n+63)/64 {
		return KernelDense
	}
	return push
}

// dropJammed removes jammed receivers from the delivered list in place,
// preserving order, in O(|delivered| + |jammed|): it marks the jammed ids in
// mark, an all-clear set over the session's nodes, filters, and clears the
// marks again. Ids outside the set's range are ignored; repeated or
// unsorted jam lists are fine.
func dropJammed(mark Bitset, delivered, jammed []graph.NodeID) []graph.NodeID {
	if len(jammed) == 0 || len(delivered) == 0 {
		return delivered
	}
	words := uint32(len(mark))
	for _, j := range jammed {
		if uint32(j)>>6 < words {
			mark.Set(j)
		}
	}
	out := delivered[:0]
	for _, v := range delivered {
		if !mark.Get(v) {
			out = append(out, v)
		}
	}
	for _, j := range jammed {
		if uint32(j)>>6 < words {
			mark.Clear(j)
		}
	}
	return out
}

// RunBroadcast simulates protocol p broadcasting from src on a static graph
// g: a fresh single-segment session. The run is a pure function of (g, src,
// p's parameters, seed of protoRNG): repeated runs with equal inputs produce
// identical Results.
func RunBroadcast(g graph.Implicit, src graph.NodeID, p Broadcaster, protoRNG *rng.RNG, opt Options) *Result {
	return NewBroadcastSession(g.N(), src, p, protoRNG).Run(g, opt)
}

// RunBroadcastWith is RunBroadcast on the broadcast session parked in sc (the
// trial-loop fast path: the experiment harness calls it with one Scratch per
// worker).
func RunBroadcastWith(sc *Scratch, g graph.Implicit, src graph.NodeID, p Broadcaster, protoRNG *rng.RNG, opt Options) *Result {
	return NewBroadcastSessionWith(sc, g.N(), src, p, protoRNG).Run(g, opt)
}

// deliveryState holds the reusable scratch arrays of the serial delivery
// kernel: a hit counter per node, the list of touched nodes (so resetting
// costs O(touched), not O(n)), the delivered-output buffer reused across
// rounds, and the row buffer implicit graphs enumerate into.
type deliveryState struct {
	hits      []int32
	touched   []graph.NodeID
	delivered []graph.NodeID
	row       []graph.NodeID
}

func newDeliveryState(n int) *deliveryState {
	return &deliveryState{hits: make([]int32, n)}
}

// deliver applies the channel's reception rule for one round: every
// out-neighbour of a transmitter whose signal survives the edge filter gets
// a hit; nodes with 1..maxHits hits receive (exactly one under the binary
// model), more collide. Returns the newly informed nodes (in increasing id
// order) and the number of nodes that experienced a collision (> maxHits
// surviving hits). The returned slice is scratch, valid until the next
// deliver call on this state.
func (st *deliveryState) deliver(g graph.Implicit, round int, transmitters []graph.NodeID, informed Bitset, caps channelCaps) (delivered []graph.NodeID, collisions int) {
	st.touched = st.touched[:0]
	dg, _ := g.(*graph.Digraph)
	if caps.edgeOK == nil {
		// Binary/capture fast path: the hit loops are branch-free on the
		// channel, identical to the binary-only kernel.
		if dg != nil {
			for _, u := range transmitters {
				for _, w := range dg.Out(u) {
					if st.hits[w] == 0 {
						st.touched = append(st.touched, w)
					}
					st.hits[w]++
				}
			}
		} else {
			for _, u := range transmitters {
				st.row = g.AppendOut(u, st.row[:0])
				for _, w := range st.row {
					if st.hits[w] == 0 {
						st.touched = append(st.touched, w)
					}
					st.hits[w]++
				}
			}
		}
	} else {
		for _, u := range transmitters {
			var row []graph.NodeID
			if dg != nil {
				row = dg.Out(u)
			} else {
				st.row = g.AppendOut(u, st.row[:0])
				row = st.row
			}
			for _, w := range row {
				if !caps.edgeOK(round, u, w) {
					continue // faded below detection threshold
				}
				if st.hits[w] == 0 {
					st.touched = append(st.touched, w)
				}
				st.hits[w]++
			}
		}
	}
	delivered = st.delivered[:0]
	maxHits := caps.maxHits
	for _, w := range st.touched {
		h := st.hits[w]
		st.hits[w] = 0
		if h > maxHits {
			collisions++
			continue
		}
		// 1 <= h <= maxHits: successful reception unless w already knows
		// the message.
		if informed.Get(w) {
			continue
		}
		delivered = append(delivered, w)
	}
	slices.Sort(delivered)
	st.delivered = delivered
	return delivered, collisions
}
