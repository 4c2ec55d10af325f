package radio

import (
	"math/bits"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Gossiper is a gossiping protocol in the join model of §3: every node
// starts with its own rumor, nodes may join all rumors they know into a
// single message, and a joined message is transmitted in one round.
// The engine calls Begin once per Run, then per round BeginRound followed
// by one AppendTransmitters call.
type Gossiper interface {
	Name() string
	Begin(n int, r *rng.RNG)
	BeginRound(round int)
	// AppendTransmitters appends this round's transmitters to dst and
	// returns the extended slice. Every node always has something to send
	// (at least its own rumor), so every node is a candidate; protocols
	// know n from Begin and sample the id range directly.
	AppendTransmitters(round int, dst []graph.NodeID) []graph.NodeID
}

// GossipOptions configures a gossip run.
type GossipOptions struct {
	// MaxRounds caps the run length. Required (> 0).
	MaxRounds int
	// FullDuplex lets a transmitting node also receive in the same round.
	// Default false (half-duplex), matching the broadcast model.
	FullDuplex bool
	// StopWhenComplete ends the run as soon as every node knows every
	// rumor; false runs the full schedule for faithful energy accounting.
	StopWhenComplete bool
	// RecordHistory captures per-round knowledge growth.
	RecordHistory bool
}

// GossipRoundStat is one row of a gossip run's history.
type GossipRoundStat struct {
	Round        int
	Transmitters int
	KnownPairs   int64 // Σ_v |rumors known to v| at end of round
}

// GossipResult summarises one gossip run (one Run segment of a session).
type GossipResult struct {
	Protocol      string
	Rounds        int     // rounds executed in this segment
	CompleteRound int     // session-absolute round at which gossip completed; -1 if not yet
	KnownPairs    int64   // session-cumulative
	TotalTx       int64   // this segment
	MaxNodeTx     int     // this segment: the maximum over PerNodeTx
	PerNodeTx     []int32 // this segment
	History       []GossipRoundStat
}

// Completed reports whether gossip finished (everyone knows everything).
func (r *GossipResult) Completed() bool { return r.CompleteRound >= 0 }

// TxPerNode returns the mean transmissions per node over this segment.
func (r *GossipResult) TxPerNode() float64 {
	return float64(r.TotalTx) / float64(len(r.PerNodeTx))
}

// rumorSet is a fixed-size bitset over rumor ids.
type rumorSet []uint64

func newRumorSet(n int) rumorSet { return make(rumorSet, (n+63)/64) }

func (s rumorSet) add(i graph.NodeID) { s[i>>6] |= 1 << (uint(i) & 63) }

// union merges o into s and returns the number of newly added rumors.
func (s rumorSet) union(o rumorSet) int {
	added := 0
	for i, w := range o {
		nw := s[i] | w
		added += bits.OnesCount64(nw ^ s[i])
		s[i] = nw
	}
	return added
}

func (s rumorSet) clone() rumorSet {
	c := make(rumorSet, len(s))
	copy(c, s)
	return c
}

// GossipSession holds gossip knowledge across multiple Run segments, so the
// topology may change between segments — the paper's mobile-network setting
// (§1: "due to the mobility of the nodes, the network topology changes over
// time"). Knowledge, per-node transmission counts, and the round clock
// persist; each Run may use a different graph over the same node set.
type GossipSession struct {
	n          int
	know       []rumorSet
	slab       []uint64 // single backing store for all n rumor sets
	knownPairs int64
	rounds     int // absolute round clock across segments
	completeAt int // absolute round in which gossip completed; -1 until then

	// scratch buffers reused across rounds and segments
	hits         []int32
	lastFrom     []graph.NodeID
	isTx         []bool
	transmitters []graph.NodeID
	touched      []graph.NodeID
}

// NewGossipSession creates a session for n nodes, each knowing its own rumor.
func NewGossipSession(n int) *GossipSession {
	if n < 1 {
		panic("radio: gossip session needs n >= 1")
	}
	words := (n + 63) / 64
	// One slab sliced into n windows instead of n individual rumor sets:
	// the allocation count per session drops from O(n) to O(1) (the win
	// BenchmarkPrimitiveGossipRun gates), and the sets sit contiguous for
	// the union-heavy merge loop.
	s := &GossipSession{
		n:            n,
		know:         make([]rumorSet, n),
		slab:         make([]uint64, n*words),
		hits:         make([]int32, n),
		lastFrom:     make([]graph.NodeID, n),
		isTx:         make([]bool, n),
		transmitters: make([]graph.NodeID, 0, n),
		touched:      make([]graph.NodeID, 0, n),
	}
	for v := 0; v < n; v++ {
		s.know[v] = rumorSet(s.slab[v*words : (v+1)*words])
	}
	s.reset()
	return s
}

// reset returns the session to its initial state — each node knowing only
// its own rumor, round clock at zero — without releasing any storage.
func (s *GossipSession) reset() {
	for i := range s.slab {
		s.slab[i] = 0
	}
	for v := 0; v < s.n; v++ {
		s.know[v].add(graph.NodeID(v))
		s.hits[v] = 0
		s.isTx[v] = false
	}
	s.knownPairs = int64(s.n)
	s.rounds = 0
	s.completeAt = -1
	if s.n == 1 {
		s.completeAt = 0 // a lone node knows every rumor from the start
	}
}

// NewGossipSessionWith is NewGossipSession on the gossip session parked in
// sc (see Scratch): a same-n session is reset and reused, anything else is
// allocated fresh and parked in sc for the next call. sc may be nil.
func NewGossipSessionWith(sc *Scratch, n int) *GossipSession {
	if sc == nil {
		return NewGossipSession(n)
	}
	if s := sc.gossip; s != nil && s.n == n {
		s.reset()
		return s
	}
	sc.gossip = NewGossipSession(n)
	return sc.gossip
}

// KnownPairs returns Σ_v |rumors known to v| (n² means complete).
func (s *GossipSession) KnownPairs() int64 { return s.knownPairs }

// Complete reports whether every node knows every rumor.
func (s *GossipSession) Complete() bool { return s.knownPairs >= int64(s.n)*int64(s.n) }

// Rounds returns the absolute round clock (total rounds across segments).
func (s *GossipSession) Rounds() int { return s.rounds }

// Knows reports whether node v currently knows the rumor of node u.
func (s *GossipSession) Knows(v, u graph.NodeID) bool {
	return s.know[v][u>>6]&(1<<(uint(u)&63)) != 0
}

// Run executes up to opt.MaxRounds further gossip rounds of protocol p on
// graph g (which must have the session's node count but may differ from
// previous segments' graphs). Per round, a node w receives iff exactly one
// of its in-neighbours transmits (and, under half-duplex, w itself stays
// silent); it then joins the sender's rumor set as of the START of the
// round into its own — the paper's m_{r+1}(w) = m_r(w) ∪ m_r(u) rule. The
// engine snapshots sender sets where required so same-round relaying cannot
// occur.
func (s *GossipSession) Run(g *graph.Digraph, p Gossiper, protoRNG *rng.RNG, opt GossipOptions) *GossipResult {
	if opt.MaxRounds <= 0 {
		panic("radio: MaxRounds must be positive")
	}
	if g.N() != s.n {
		panic("radio: graph size does not match gossip session")
	}
	n := s.n
	res := &GossipResult{
		Protocol:      p.Name(),
		CompleteRound: s.completeAt,
		PerNodeTx:     make([]int32, n),
		KnownPairs:    s.knownPairs,
	}
	if s.completeAt >= 0 {
		return res
	}

	p.Begin(n, protoRNG)
	totalTarget := int64(n) * int64(n)
	transmitters := s.transmitters[:0]
	touched := s.touched[:0]

	start := s.rounds
	segEnd := start + opt.MaxRounds
	for s.rounds < segEnd {
		s.rounds++
		round := s.rounds
		p.BeginRound(round)
		transmitters = p.AppendTransmitters(round, transmitters[:0])
		for _, v := range transmitters {
			res.PerNodeTx[v]++
			s.isTx[v] = true
		}
		res.TotalTx += int64(len(transmitters))

		// Delivery: every transmitter pushes along its out-edges, counting
		// hits per receiver and remembering the last sender.
		touched = touched[:0]
		for _, u := range transmitters {
			for _, w := range g.Out(u) {
				if s.hits[w] == 0 {
					touched = append(touched, w)
				}
				s.hits[w]++
				s.lastFrom[w] = u
			}
		}

		// Under full duplex a transmitter can also receive, so its rumor
		// set may be extended during this round's merge loop. Snapshot
		// the sets of all such sender-receivers before merging, so that
		// receivers of their transmissions see the start-of-round set.
		// Under half-duplex no transmitter receives, so no snapshots are
		// needed.
		var snapshots map[graph.NodeID]rumorSet
		if opt.FullDuplex {
			for _, w := range touched {
				if s.hits[w] == 1 && s.isTx[w] {
					if snapshots == nil {
						snapshots = make(map[graph.NodeID]rumorSet)
					}
					snapshots[w] = s.know[w].clone()
				}
			}
		}

		for _, w := range touched {
			h := s.hits[w]
			s.hits[w] = 0
			if h != 1 {
				continue
			}
			if !opt.FullDuplex && s.isTx[w] {
				continue // half-duplex: a transmitting node hears nothing
			}
			u := s.lastFrom[w]
			src := s.know[u]
			if snap, ok := snapshots[u]; ok {
				src = snap
			}
			s.knownPairs += int64(s.know[w].union(src))
		}
		for _, u := range transmitters {
			s.isTx[u] = false
		}
		res.Rounds = round - start
		res.KnownPairs = s.knownPairs
		if opt.RecordHistory {
			res.History = append(res.History, GossipRoundStat{
				Round:        round,
				Transmitters: len(transmitters),
				KnownPairs:   s.knownPairs,
			})
		}
		if s.knownPairs >= totalTarget {
			if s.completeAt < 0 {
				s.completeAt = round
			}
			if opt.StopWhenComplete {
				break
			}
		}
	}
	s.transmitters = transmitters
	s.touched = touched
	res.CompleteRound = s.completeAt
	for _, c := range res.PerNodeTx {
		if int(c) > res.MaxNodeTx {
			res.MaxNodeTx = int(c)
		}
	}
	return res
}

// RunGossip simulates protocol p gossiping on a static graph g: a fresh
// single-segment session. See GossipSession.Run for the semantics.
func RunGossip(g *graph.Digraph, p Gossiper, protoRNG *rng.RNG, opt GossipOptions) *GossipResult {
	return NewGossipSession(g.N()).Run(g, p, protoRNG, opt)
}

// RunGossipWith is RunGossip on the gossip session parked in sc (see
// Scratch): the trial-loop form that keeps repeated same-n runs from
// reallocating per-node rumor sets.
func RunGossipWith(sc *Scratch, g *graph.Digraph, p Gossiper, protoRNG *rng.RNG, opt GossipOptions) *GossipResult {
	return NewGossipSessionWith(sc, g.N()).Run(g, p, protoRNG, opt)
}
