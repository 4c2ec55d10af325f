package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
)

// Seed streams: the graph and each trial draw from their own sub-seed of
// the workload seed.
const (
	graphStream = 1
	trialStream = 1 << 32
)

// broadcast is a workload of independent broadcast trials on one
// materialized graph, all on one radio.Scratch. One op is one trial.
type broadcast struct {
	seed  uint64
	reps  int
	gen   func(seed uint64) *graph.Digraph
	proto func(n int) radio.Broadcaster
	opts  func(withEnergy bool) radio.Options
	check func(res *radio.Result, n int) error
	// energyReruns is how many trials the traced phase reruns with the
	// energy model off, to price it (0: the workload has no energy model).
	energyReruns int
	// noSkip marks a protocol that must execute every round (Algorithm 3's
	// per-round probability is never uniform); the traced phase checks it.
	noSkip bool

	g    *graph.Digraph
	sc   *radio.Scratch
	genS float64
}

// newAlg1GNP is Algorithm 1 on G(n, p) with p = 8·ln n/n. At 2·ln n
// Algorithm 1 leaves about 0.2% of the nodes uninformed, so the workload
// uses the density at which every trial completes.
func newAlg1GNP(seed uint64, n int) *broadcast {
	p := 8 * math.Log(float64(n)) / float64(n)
	return &broadcast{
		seed:  seed,
		reps:  5,
		gen:   func(s uint64) *graph.Digraph { return graph.GNPDirected(n, p, rng.New(s)) },
		proto: func(int) radio.Broadcaster { return core.NewAlgorithm1(p) },
		opts:  func(bool) radio.Options { return radio.Options{MaxRounds: 10000} },
		check: checkAlg1,
	}
}

// newAlg3RGGEnergy is Algorithm 3 with β = 2 on a torus RGG at twice the
// connectivity radius, with D bounding the hop diameter
// (2·⌈(√2/2)/r⌉ + 2), under CC2420 energy accounting with a budget that
// never depletes and 10% per-receiver fades.
func newAlg3RGGEnergy(seed uint64, n, energyReruns int) *broadcast {
	r := 2 * graph.ConnectivityRadius(n)
	d := 2*int(math.Ceil(math.Sqrt2/2/r)) + 2
	spec := &energy.Spec{Model: energy.CC2420(), Budget: 1e9}
	return &broadcast{
		seed:  seed,
		reps:  9,
		gen:   func(s uint64) *graph.Digraph { return graph.RGG(n, r, true, rng.New(s)) },
		proto: func(n int) radio.Broadcaster { return core.NewAlgorithm3(n, d, 2) },
		opts: func(withEnergy bool) radio.Options {
			o := radio.Options{MaxRounds: 1 << 20, Reception: radio.Fade(0.1)}
			if withEnergy {
				o.Energy = spec
			}
			return o
		},
		check:        checkAlg3,
		energyReruns: energyReruns,
		noSkip:       true,
	}
}

// checkAlg1 is Theorem 2.1: every node is informed and none transmits
// more than once.
func checkAlg1(res *radio.Result, n int) error {
	if !res.Completed() || res.Informed != n {
		return fmt.Errorf("algorithm 1 informed %d of %d nodes", res.Informed, n)
	}
	if res.MaxNodeTx > 1 {
		return fmt.Errorf("algorithm 1: a node transmitted %d times (Theorem 2.1 allows one)", res.MaxNodeTx)
	}
	return nil
}

func checkAlg3(res *radio.Result, n int) error {
	if !res.Completed() {
		return fmt.Errorf("algorithm 3 informed %d of %d nodes", res.Informed, n)
	}
	if res.Energy == nil || res.Energy.DeadCount > 0 {
		return fmt.Errorf("algorithm 3: the energy budget depleted a node")
	}
	return nil
}

func (b *broadcast) setupReps() int { return b.reps }

func (b *broadcast) setup() error {
	t := time.Now()
	b.g = b.gen(rng.SubSeed(b.seed, graphStream))
	b.genS = time.Since(t).Seconds()
	b.sc = radio.NewScratch()
	return nil
}

func (b *broadcast) teardown() { b.g, b.sc = nil, nil }

// trial runs trial i, wrapping the protocol when wrap is non-nil.
func (b *broadcast) trial(i int, wrap func(radio.Broadcaster) radio.Broadcaster, withEnergy bool, tr *tracer, parent int) *radio.Result {
	r := rng.New(rng.SubSeed(b.seed, trialStream+uint64(i)))
	src := graph.NodeID(r.Intn(b.g.N()))
	p := b.proto(b.g.N())
	if wrap != nil {
		p = wrap(p)
	}
	span := tr.begin("radio.run", parent, int64(i))
	res := radio.RunBroadcastWith(b.sc, b.g, src, p, r, b.opts(withEnergy))
	tr.end(span)
	return res
}

func (b *broadcast) phase(tr *tracer, host *hostProbe, more moreFunc) (*phaseResult, error) {
	res := &phaseResult{root: tr.begin("phase", noSpan, noOp)}
	var ps protoStats
	var wrap func(radio.Broadcaster) radio.Broadcaster
	if tr != nil {
		ps.clockNs = measureClockNs()
		wrap = func(p radio.Broadcaster) radio.Broadcaster { return wrapProto(p, &ps) }
	}
	var digest uint64 = 14695981039346656037
	var rounds, tx, collisions, pushEdges int64
	n := b.g.N()
	start := time.Now()
	for i := 0; more(i, i, time.Since(start)); i++ {
		res.units++
		host.tick(tr, res.root)
		op := tr.begin("trial", res.root, int64(i))
		t := time.Now()
		out := b.trial(i, wrap, true, tr, op)
		d := time.Since(t)
		tr.end(op)
		// The phase's time is the trials' own: the checks below are the
		// benchmark's work, not the simulator's.
		res.elapsed += d
		res.opMs = append(res.opMs, ms(d))
		res.opAt = append(res.opAt, t)
		res.attempted++
		if err := b.check(out, n); err != nil {
			res.fail("trial %d: %v", i, err)
		}
		digest = mix(digest, fingerprint(out, true))
		if tr != nil {
			rounds += int64(out.Rounds)
			tx += out.TotalTx
			collisions += out.Collisions
			for v, c := range out.PerNodeTx {
				pushEdges += int64(c) * int64(b.g.OutDegree(graph.NodeID(v)))
			}
		}
	}
	tr.end(res.root)
	res.digest = strconv.FormatUint(digest, 16)
	if tr == nil {
		return res, nil
	}

	st := newSpanTable(tr.snapshot())
	runS := st.totalS("radio.run")
	selfS := runS - ps.totalS()
	runMs := st.durationsMs("radio.run")
	res.layer = values{
		"graph.gen_s":               b.genS,
		"graph.edges":               float64(b.g.M()),
		"graph.csr_mib_computed":    float64(2*(n+1)*(strconv.IntSize/8)+2*b.g.M()*4) / (1 << 20),
		"radio.run_ms_p50":          percentile(runMs, 0.5),
		"radio.run_ms_p90":          percentile(runMs, 0.9),
		"radio.self_s":              selfS,
		"radio.rounds":              float64(rounds),
		"radio.rounds_executed":     float64(ps.rounds),
		"radio.rounds_skipped":      float64(rounds - ps.rounds),
		"radio.tx":                  float64(tx),
		"radio.push_edges_computed": float64(pushEdges),
		"radio.ns_per_push_edge":    ratio(selfS*1e9, float64(pushEdges)),
		"radio.collisions":          float64(collisions),
		"proto.begin_s":             ps.beginS(),
		"proto.decide_s":            ps.decideS(),
		"proto.decide_calls":        float64(ps.decideCalls),
		"proto.inform_s":            ps.informS(),
		"proto.inform_calls":        float64(ps.informCalls),
		"proto.skip_s":              ps.skipS(),
		"proto.skip_calls":          float64(ps.skipCalls),
		"proto.share":               ratio(ps.totalS(), runS),
	}
	if b.noSkip && rounds != ps.rounds {
		res.fail("%d of %d rounds were skipped; this protocol must execute every round", rounds-ps.rounds, rounds)
	}
	if b.energyReruns > 0 {
		overhead, err := b.energyOverhead(min(b.energyReruns, res.units))
		if err != nil {
			res.fail("%v", err)
		}
		res.layer["energy.overhead_s"] = overhead
	}
	return res, nil
}

// energyOverhead reruns the first k trials with and without the energy
// model, checks that the energy model left every trajectory unchanged, and
// returns the time the energy model added.
func (b *broadcast) energyOverhead(k int) (float64, error) {
	var on, off time.Duration
	for i := 0; i < k; i++ {
		t := time.Now()
		withE := b.trial(i, nil, true, nil, noSpan)
		on += time.Since(t)
		t = time.Now()
		without := b.trial(i, nil, false, nil, noSpan)
		off += time.Since(t)
		if fingerprint(withE, false) != fingerprint(without, false) {
			return 0, fmt.Errorf("trial %d: the energy model changed the broadcast trajectory", i)
		}
	}
	return (on - off).Seconds(), nil
}

// fingerprint hashes a result's trajectory: rounds, informing, every
// node's transmission count, collisions and, with withEnergy, the energy
// totals.
func fingerprint(res *radio.Result, withEnergy bool) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range []int64{int64(res.Rounds), int64(res.InformedRound), int64(res.Informed),
		res.TotalTx, int64(res.MaxNodeTx), res.Collisions} {
		h = mix(h, uint64(x))
	}
	for _, c := range res.PerNodeTx {
		h = mix(h, uint64(c))
	}
	if withEnergy && res.Energy != nil {
		e := res.Energy
		for _, x := range []float64{e.TxEnergy, e.RxEnergy, e.ListenEnergy, e.SleepEnergy} {
			h = mix(h, math.Float64bits(x))
		}
		h = mix(h, uint64(e.DeadCount))
	}
	return h
}

func mix(h, x uint64) uint64 { return rng.SubSeed(h, x) }
