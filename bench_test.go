package repro

// The benchmark harness: one testing.B benchmark per experiment in the
// "Experiment index" of README.md. Each benchmark regenerates its
// experiment's table at reduced scale and reports the headline quantities
// as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces every figure- and theorem-validation in one run. Full-scale
// tables are produced by cmd/experiments (see EXPERIMENTS.md).

import (
	"math"
	"strconv"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/expt"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sweep"
)

// benchCfg derives a small-scale experiment config from the benchmark's own
// iteration index so repeated iterations stay deterministic but distinct.
func benchCfg(i int) expt.Config {
	return expt.Config{Full: false, Seed: 0xbe9c4 + uint64(i), Workers: 0}
}

// runExperiment executes the registered experiment once per b.N iteration
// and reports a named cell of the first table as a benchmark metric.
func runExperiment(b *testing.B, id, metricCol, metricName string) {
	b.Helper()
	e, ok := expt.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	var last float64
	for i := 0; i < b.N; i++ {
		tables := e.Run(benchCfg(i))
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("%s produced no data", id)
		}
		if metricCol != "" {
			last = cell(b, tables[0], len(tables[0].Rows)-1, metricCol)
		}
	}
	if metricCol != "" {
		b.ReportMetric(last, metricName)
	}
}

func cell(b *testing.B, t *sweep.Table, row int, colName string) float64 {
	b.Helper()
	for i, c := range t.Columns {
		if c == colName {
			v, err := strconv.ParseFloat(t.Rows[row][i], 64)
			if err != nil {
				b.Fatalf("cell %q not numeric: %q", colName, t.Rows[row][i])
			}
			return v
		}
	}
	b.Fatalf("no column %q in %q (have %v)", colName, t.Title, t.Columns)
	return 0
}

// --- figures ---

func BenchmarkF1Distributions(b *testing.B) { runExperiment(b, "F1", "", "") }
func BenchmarkF2Network(b *testing.B)       { runExperiment(b, "F2", "", "") }

// --- theorem experiments ---

func BenchmarkE1Algorithm1(b *testing.B) {
	runExperiment(b, "E1", "rounds/log2 n", "rounds/log2n")
}

func BenchmarkE2Phase1Growth(b *testing.B) {
	runExperiment(b, "E2", "ratio/d", "growth/d")
}

func BenchmarkE3Phase2(b *testing.B) {
	runExperiment(b, "E3", "fraction of n", "phase2frac")
}

func BenchmarkE4Phase3(b *testing.B) {
	runExperiment(b, "E4", "(rounds to finish)/log2 n", "p3rounds/log2n")
}

func BenchmarkE5Diameter(b *testing.B) {
	runExperiment(b, "E5", "within +1 rate", "diam-within1")
}

func BenchmarkE6Gossip(b *testing.B) {
	runExperiment(b, "E6", "rounds/(d·log2 n)", "rounds/dlog2n")
}

func BenchmarkE7General(b *testing.B) {
	runExperiment(b, "E7", "tx/node ÷ (log²n/λ)", "tx-normalised")
}

func BenchmarkE8Tradeoff(b *testing.B) {
	runExperiment(b, "E8", "tx/node · λ/log²n", "energy·λ/log²n")
}

func BenchmarkE9LowerBound(b *testing.B) {
	runExperiment(b, "E9", "energy/bound (bound = n·log n/2)", "energy/bound")
}

func BenchmarkE10StarPath(b *testing.B) {
	runExperiment(b, "E10", "tx/bound", "tx/bound")
}

func BenchmarkE11Corollary(b *testing.B) {
	runExperiment(b, "E11", "tx/node ÷ log²N", "tx/log²N")
}

func BenchmarkE12VsEG(b *testing.B) {
	runExperiment(b, "E12", "max tx/node", "maxtx")
}

// --- extensions / ablations ---

func BenchmarkX1Geometric(b *testing.B)    { runExperiment(b, "X1", "", "") }
func BenchmarkX2AblatePhase2(b *testing.B) { runExperiment(b, "X2", "", "") }
func BenchmarkX3AblateBeta(b *testing.B)   { runExperiment(b, "X3", "", "") }
func BenchmarkX4Engine(b *testing.B)       { runExperiment(b, "X4", "", "") }

// --- micro-benchmarks of the primitives the experiments lean on ---

func BenchmarkPrimitiveAlgorithm1Run(b *testing.B) {
	n := 4096
	p := 8 * math.Log(float64(n)) / float64(n)
	g := graph.GNPDirected(n, p, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		radio.RunBroadcast(g, 0, core.NewAlgorithm1(p), rng.New(uint64(i)),
			radio.Options{MaxRounds: 10000})
	}
}

func BenchmarkPrimitiveAlgorithm3Grid(b *testing.B) {
	g := graph.Grid2D(32, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		radio.RunBroadcast(g, 0, core.NewAlgorithm3(g.N(), 62, 2), rng.New(uint64(i)),
			radio.Options{MaxRounds: 200000})
	}
}

// (Named Run, not Round: each op is a complete gossip run, so the per-round
// allocation gate's 0 allocs/op does not apply; instead alloc_gate.sh pins
// it to a small named budget. The Scratch parks the session, so its n
// rumor sets and engine buffers are reset across runs — without it each op
// paid ~n allocations just to re-create per-node knowledge.)
func BenchmarkPrimitiveGossipRun(b *testing.B) {
	n := 512
	p := 8 * math.Log(float64(n)) / float64(n)
	g := graph.GNPDirected(n, p, rng.New(2))
	a := core.NewAlgorithm2(p)
	sc := radio.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		radio.RunGossipWith(sc, g, a, rng.New(uint64(i)), radio.GossipOptions{
			MaxRounds: a.RoundBudget(n), StopWhenComplete: true,
		})
	}
}

func BenchmarkPrimitiveGNPGeneration(b *testing.B) {
	n := 1 << 16
	p := 8 * math.Log(float64(n)) / float64(n)
	r := rng.New(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.GNPDirected(n, p, r)
	}
}

// bigGNP caches the n=262144 G(n,p) instance across benchmark counts (it
// takes seconds to generate and none of the benchmarks mutate it).
var bigGNP struct {
	once sync.Once
	g    *graph.Digraph
	p    float64
}

func bigGNPGraph() (*graph.Digraph, float64) {
	bigGNP.once.Do(func() {
		n := 262144
		bigGNP.p = 8 * math.Log(float64(n)) / float64(n)
		bigGNP.g = graph.GNPDirected(n, bigGNP.p, rng.New(1))
	})
	return bigGNP.g, bigGNP.p
}

func BenchmarkPrimitiveAlgorithm1Run262144(b *testing.B) {
	g, p := bigGNPGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		radio.RunBroadcast(g, 0, core.NewAlgorithm1(p), rng.New(uint64(i)),
			radio.Options{MaxRounds: 10000})
	}
}

// bigGNP1M caches the n=1,048,576 G(n,p) instance (d = 2·ln n ≈ 27.7,
// ~29M directed edges) for the million-node broadcast benchmark.
var bigGNP1M struct {
	once sync.Once
	g    *graph.Digraph
	p    float64
}

func bigGNP1MGraph() (*graph.Digraph, float64) {
	bigGNP1M.once.Do(func() {
		n := 1 << 20
		bigGNP1M.p = 2 * math.Log(float64(n)) / float64(n)
		bigGNP1M.g = graph.GNPDirected(n, bigGNP1M.p, rng.New(1))
	})
	return bigGNP1M.g, bigGNP1M.p
}

// BenchmarkPrimitiveAlgorithm1Run1048576 is the million-node acceptance
// workload of the sparse round engine: one full Algorithm 1 broadcast on a
// 2^20-node G(n,p). Scratch reuse keeps the round loop allocation-free
// (per-op allocations are the per-run Result/protocol state only).
func BenchmarkPrimitiveAlgorithm1Run1048576(b *testing.B) {
	g, p := bigGNP1MGraph()
	sc := radio.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		radio.RunBroadcastWith(sc, g, 0, core.NewAlgorithm1(p), rng.New(uint64(i)),
			radio.Options{MaxRounds: 10000})
	}
}

// --- the sparse-engine macro benchmark: a low-q late-phase-heavy workload
// (FixedProb with a long activity window on G(n,p)) where the classic
// engine pays Σ deg(transmitter) per round long after everyone is informed
// and grinds through the early silent rounds one at a time. The Legacy
// variant forces the PR-4-era configuration (push kernel, no cross-round
// skipping) so the committed BENCH files document the speedup; the default
// variant lets the adaptive kernel selection and silent-skip work.

func benchFixedProbLateQ(b *testing.B, legacy bool) {
	n := 8192
	p := 8 * math.Log(float64(n)) / float64(n)
	g := graph.GNPDirected(n, p, rng.New(77))
	if legacy {
		radio.SetEngineOverrides(radio.EngineOverrides{Kernel: radio.KernelPush, DisableSkip: true})
	}
	defer radio.SetEngineOverrides(radio.EngineOverrides{})
	sc := radio.NewScratch()
	proto := func() *baseline.FixedProb { return &baseline.FixedProb{Q: 0.001, Window: 5000} }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		radio.RunBroadcastWith(sc, g, 0, proto(), rng.New(uint64(i)),
			radio.Options{MaxRounds: 40000})
	}
}

func BenchmarkPrimitiveFixedProbLateQ(b *testing.B)       { benchFixedProbLateQ(b, false) }
func BenchmarkPrimitiveFixedProbLateQLegacy(b *testing.B) { benchFixedProbLateQ(b, true) }

// --- late-phase round isolation at scale: FixedProb on the n=262144
// G(n,p), warmed until the whole network is informed, then b.N further
// steady-state rounds. With everyone informed the uninformed frontier is
// empty, so the adaptive engine selects the pull kernel and a round costs
// O(|tx|) instead of the push kernel's Σ deg(transmitter) ≈ |tx|·100 edge
// visits — the Legacy variant pins the push kernel on the identical session
// so the committed BENCH files document the per-round gap.
func benchLatePhaseRound262144(b *testing.B, legacy bool) {
	g, _ := bigGNPGraph()
	n := g.N()
	proto := &baseline.FixedProb{Q: 4096.0 / float64(n)} // ~4k transmitters/round
	sess := radio.NewBroadcastSession(n, 0, proto, rng.New(18))
	sess.Run(g, radio.Options{MaxRounds: 100000, StopWhenInformed: true})
	if sess.Informed() != n {
		b.Fatalf("warm-up informed %d of %d nodes", sess.Informed(), n)
	}
	if legacy {
		radio.SetEngineOverrides(radio.EngineOverrides{Kernel: radio.KernelPush, DisableSkip: true})
	}
	defer radio.SetEngineOverrides(radio.EngineOverrides{})
	b.ReportAllocs()
	b.ResetTimer()
	sess.Run(g, radio.Options{MaxRounds: b.N})
}

func BenchmarkPrimitiveLatePhaseRound262144(b *testing.B) { benchLatePhaseRound262144(b, false) }
func BenchmarkPrimitiveLatePhaseRound262144Legacy(b *testing.B) {
	benchLatePhaseRound262144(b, true)
}

// --- silent-round skipping isolation: a near-silent FixedProb session (one
// informed node, q = 1e-6) where virtually every round is skipped by the
// cross-round stream contract; per-op is one simulated round, so this
// measures the amortised cost of a skipped round (O(1) per silent span).
func BenchmarkPrimitiveSilentRound(b *testing.B) {
	n := 4096
	p := 8 * math.Log(float64(n)) / float64(n)
	g := graph.GNPDirected(n, p, rng.New(5))
	proto := &baseline.FixedProb{Q: 1e-6}
	sess := radio.NewBroadcastSession(n, 0, proto, rng.New(6))
	b.ReportAllocs()
	b.ResetTimer()
	sess.Run(g, radio.Options{MaxRounds: b.N})
}

// --- geometric generation: the cell-grid RGG path at scale. n=262144 near
// the connectivity threshold is the acceptance workload — it only completes
// in benchmark time because construction is O(n + m) via the spatial index,
// never an O(n²) pairwise scan. Scratch reuse keeps the steady state
// allocation-light.

func benchRGGGeneration(b *testing.B, n int) {
	r := 2 * graph.ConnectivityRadius(n)
	spec := graph.GeomSpec{N: n, Radius: r, Torus: true}
	sc := graph.NewScratch()
	rg := rng.New(3)
	var edges int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _ := sc.Geometric(spec, rg)
		edges = g.M()
	}
	b.ReportMetric(float64(edges), "edges")
}

func BenchmarkPrimitiveRGGGeneration65536(b *testing.B)  { benchRGGGeneration(b, 1<<16) }
func BenchmarkPrimitiveRGGGeneration262144(b *testing.B) { benchRGGGeneration(b, 262144) }

// bigRGG caches the n=262144 RGG instance at 2·r_c across benchmark counts.
var bigRGG struct {
	once sync.Once
	g    *graph.Digraph
}

func bigRGGGraph() *graph.Digraph {
	bigRGG.once.Do(func() {
		n := 262144
		bigRGG.g = graph.RGG(n, 2*graph.ConnectivityRadius(n), true, rng.New(1))
	})
	return bigRGG.g
}

// RGG-round isolation: a fixed transmitter set pulsing every round through
// the delivery kernel on the big geometric graph — the steady-state cost of
// one simulated round on the workload class the geometric experiments run.
func BenchmarkPrimitiveRGGRound262144(b *testing.B) { benchRGGRound262144(b, false) }

// BenchmarkPrimitiveRepeatedRound262144 is the RGG round with one pulse set
// repeated every round: once a round delivers nothing, every later round is
// served from its kernel result, as a livelocked flood's rounds are. Per-op
// is the cost of such a round against the RGG round's kernel, and the
// alloc gate holds it to 0 allocs/op as well.
func BenchmarkPrimitiveRepeatedRound262144(b *testing.B) { benchRGGRound262144(b, true) }

func benchRGGRound262144(b *testing.B, repeat bool) {
	g := bigRGGGraph()
	n := g.N()
	txs := make([]graph.NodeID, 0, n/64)
	for v := 0; v < n; v += 64 {
		txs = append(txs, graph.NodeID(v))
	}
	sess := radio.NewBroadcastSession(n, 0, &pulseSet{txs: txs, repeat: repeat}, rng.New(18))
	b.ReportAllocs()
	b.ResetTimer()
	sess.Run(g, radio.Options{MaxRounds: b.N})
}

// --- decision-phase isolation: one Bernoulli round over a fully informed
// network, batch (geometric-skip) vs scalar (per-node membership loop).
// Per-op is per simulated round; the batch path's cost is O(nq), the
// scalar path's O(n·nq): ShouldTransmit scans the round's drawn list, a
// cost only the shared-draw oracle pays, since the engine never asks
// ShouldTransmit of a BatchBroadcaster.

func benchDecisionPhase(b *testing.B, n int, batch bool) {
	q := 16.0 / float64(n) // ~16 transmitters per round
	f := &baseline.FixedProb{Q: q}
	f.Begin(n, 0, rng.New(1))
	informed := make([]graph.NodeID, n)
	for i := range informed {
		informed[i] = graph.NodeID(i)
		f.OnInformed(0, graph.NodeID(i))
	}
	dst := make([]graph.NodeID, 0, n)
	b.ReportAllocs()
	b.ResetTimer()
	for r := 1; r <= b.N; r++ {
		f.BeginRound(r)
		dst = dst[:0]
		if batch {
			dst = f.AppendTransmitters(r, informed, dst)
		} else {
			for _, v := range informed {
				if f.ShouldTransmit(r, v) {
					dst = append(dst, v)
				}
			}
		}
	}
}

func BenchmarkPrimitiveDecisionBatch4096(b *testing.B)    { benchDecisionPhase(b, 4096, true) }
func BenchmarkPrimitiveDecisionScalar4096(b *testing.B)   { benchDecisionPhase(b, 4096, false) }
func BenchmarkPrimitiveDecisionBatch262144(b *testing.B)  { benchDecisionPhase(b, 262144, true) }
func BenchmarkPrimitiveDecisionScalar262144(b *testing.B) { benchDecisionPhase(b, 262144, false) }

// --- delivery-phase isolation: a fixed transmitter set pulsing every round
// through the engine on a large G(n,p); after the first rounds everyone is
// informed, so per-op measures the steady-state delivery kernel (hit
// counting, collision resolution, scratch reuse) with a ~42k-edge round.

// pulseSet sends its fixed set txs in odd rounds and the same set shifted
// up by one id in even rounds. The engine serves a round that repeats an
// idle predecessor's transmitters from that round's kernel result, so the
// alternation is what keeps a kernel in every timed round. With repeat set
// every round sends txs, and the rounds after the first idle one are
// served without a kernel.
type pulseSet struct {
	txs    []graph.NodeID
	repeat bool
	n      int
	isTx   []bool
}

func (p *pulseSet) Name() string { return "pulse-set" }
func (p *pulseSet) Begin(n int, _ graph.NodeID, _ *rng.RNG) {
	// The sets are fixed per round parity, so membership (scalar path) and
	// the batch list agree — the shared-draw contract without any draw.
	p.n = n
	p.isTx = make([]bool, n)
	for _, v := range p.txs {
		p.isTx[v] = true
	}
}

// shifted reports whether round sends the shifted set.
func (p *pulseSet) shifted(round int) bool { return !p.repeat && round%2 == 0 }

func (p *pulseSet) BeginRound(int) {}
func (p *pulseSet) ShouldTransmit(round int, v graph.NodeID) bool {
	if p.shifted(round) {
		v = graph.NodeID((int(v) + p.n - 1) % p.n)
	}
	return p.isTx[v]
}
func (p *pulseSet) OnInformed(int, graph.NodeID) {}
func (p *pulseSet) Quiesced(int) bool            { return false }
func (p *pulseSet) AppendTransmitters(round int, _ []graph.NodeID, dst []graph.NodeID) []graph.NodeID {
	if !p.shifted(round) {
		return append(dst, p.txs...)
	}
	for _, v := range p.txs {
		dst = append(dst, graph.NodeID((int(v)+1)%p.n))
	}
	return dst
}

func benchDeliveryPhase(b *testing.B, parallel bool) {
	n := 1 << 15
	p := 8 * math.Log(float64(n)) / float64(n)
	g := graph.GNPDirected(n, p, rng.New(17))
	txs := make([]graph.NodeID, 0, n/64)
	for v := 0; v < n; v += 64 {
		txs = append(txs, graph.NodeID(v))
	}
	sess := radio.NewBroadcastSession(n, 0, &pulseSet{txs: txs}, rng.New(18))
	b.ReportAllocs()
	b.ResetTimer()
	sess.Run(g, radio.Options{MaxRounds: b.N, Parallel: parallel})
}

func BenchmarkPrimitiveDeliverySerial(b *testing.B)   { benchDeliveryPhase(b, false) }
func BenchmarkPrimitiveDeliveryParallel(b *testing.B) { benchDeliveryPhase(b, true) }

// --- draw-kernel isolation: one op is a pass of rng.SkipSample over 32,768
// candidates, the geometric skipping behind every Bernoulli transmitter
// draw and G(n,p) row, so ns/index is the cost of one rng.Geometric draw
// plus the sampler's step. p = 4e-4 is about the alg1-gnp edge probability.

func benchSkipSample(b *testing.B, p float64) {
	r := rng.New(1)
	selected := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := r.SkipSample(1<<15, p)
		for _, ok := s.Next(); ok; _, ok = s.Next() {
			selected++
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(selected, 1)), "ns/index")
}

func BenchmarkPrimitiveSkipSampleHalf(b *testing.B)      { benchSkipSample(b, 0.5) }
func BenchmarkPrimitiveSkipSampleSixteenth(b *testing.B) { benchSkipSample(b, 1.0/16) }
func BenchmarkPrimitiveSkipSample4e4(b *testing.B)       { benchSkipSample(b, 4e-4) }

// --- dense-round isolation: the mid-phase regime where broadcast runs spend
// their wall clock — ~4k transmitters × d≈100 on the n=262144 G(n,p), so
// Σ outdeg(tx) ≈ 1.6·n per round. The default variant forces the
// word-parallel carry-save kernel (dense.go: two branch-free word RMWs per
// edge into L1-resident bit planes); Legacy pins the serial push kernel,
// whose per-edge counter load spans a 1 MB hits array, so the committed
// BENCH files document the dense speedup. Forced kernels rather than
// KernelAuto because the pulse workload informs everyone immediately,
// putting auto in its (already benchmarked) pull regime.
func benchDensePushRound262144(b *testing.B, kernel radio.DeliveryKernel) {
	g, _ := bigGNPGraph()
	n := g.N()
	txs := make([]graph.NodeID, 0, n/64)
	for v := 0; v < n; v += 64 {
		txs = append(txs, graph.NodeID(v))
	}
	sess := radio.NewBroadcastSession(n, 0, &pulseSet{txs: txs}, rng.New(18))
	radio.SetEngineOverrides(radio.EngineOverrides{Kernel: kernel})
	defer radio.SetEngineOverrides(radio.EngineOverrides{})
	sess.Run(g, radio.Options{MaxRounds: 2}) // materialise kernel state off the clock
	b.ReportAllocs()
	b.ResetTimer()
	sess.Run(g, radio.Options{MaxRounds: b.N})
}

func BenchmarkPrimitiveDensePushRound262144(b *testing.B) {
	benchDensePushRound262144(b, radio.KernelDense)
}
func BenchmarkPrimitiveDensePushRound262144Legacy(b *testing.B) {
	benchDensePushRound262144(b, radio.KernelPush)
}

func BenchmarkX5Adversity(b *testing.B) { runExperiment(b, "X5", "", "") }
func BenchmarkX6Mobility(b *testing.B)  { runExperiment(b, "X6", "", "") }

func BenchmarkX7Battery(b *testing.B) { runExperiment(b, "X7", "", "") }

func BenchmarkX8Heterogeneous(b *testing.B) { runExperiment(b, "X8", "", "") }

// --- the network-lifetime battery (internal/energy) ---

func BenchmarkN1Lifetime(b *testing.B)       { runExperiment(b, "N1", "", "") }
func BenchmarkN2Pareto(b *testing.B)         { runExperiment(b, "N2", "totalE/node", "totalE/node") }
func BenchmarkN3ListenCost(b *testing.B)     { runExperiment(b, "N3", "", "") }
func BenchmarkN4HeteroBattery(b *testing.B)  { runExperiment(b, "N4", "", "") }
func BenchmarkN5MobileLifetime(b *testing.B) { runExperiment(b, "N5", "", "") }

// --- energy-path micro-benchmarks: the same hot paths as the disabled-model
// Primitives, with per-round radio-state accounting and battery budgets on.
// The budgets are sized to never deplete, so the workload is identical to
// the unmetered benchmark and per-op deltas isolate the accounting cost
// (lazy per-node folds only: no round reaches the horizon before which no
// battery can run out, so no death round is ever predicted and no round
// scans the keys).

func BenchmarkPrimitiveAlgorithm1RunEnergy(b *testing.B) {
	n := 4096
	p := 8 * math.Log(float64(n)) / float64(n)
	g := graph.GNPDirected(n, p, rng.New(1))
	sc := radio.NewScratch()
	spec := &energy.Spec{Model: energy.CC2420(), Budget: 1e9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		radio.RunBroadcastWith(sc, g, 0, core.NewAlgorithm1(p), rng.New(uint64(i)),
			radio.Options{MaxRounds: 10000, Energy: spec})
	}
}

// Steady-state accounting at scale: the RGGRound262144 workload with the
// energy model enabled — per-op is one simulated round including ~4k
// transmit-event charges and the aggregate settlement.
func BenchmarkPrimitiveEnergyRound262144(b *testing.B) {
	g := bigRGGGraph()
	n := g.N()
	txs := make([]graph.NodeID, 0, n/64)
	for v := 0; v < n; v += 64 {
		txs = append(txs, graph.NodeID(v))
	}
	sess := radio.NewBroadcastSession(n, 0, &pulseSet{txs: txs}, rng.New(18))
	b.ReportAllocs()
	b.ResetTimer()
	sess.Run(g, radio.Options{MaxRounds: b.N,
		Energy: &energy.Spec{Model: energy.CC2420(), Budget: 1e12}})
}

// BenchmarkPrimitiveFadeRound262144 is the channel-layer alloc gate: the
// same steady-state pulse as the energy round benchmark, but every delivery
// resolves through the per-edge lossy + per-receiver fade draws. The caps
// closures are built once per Run, so a faded round must stay 0 allocs/op
// like the binary round it generalises.
func BenchmarkPrimitiveFadeRound262144(b *testing.B) {
	g := bigRGGGraph()
	n := g.N()
	txs := make([]graph.NodeID, 0, n/64)
	for v := 0; v < n; v += 64 {
		txs = append(txs, graph.NodeID(v))
	}
	sess := radio.NewBroadcastSession(n, 0, &pulseSet{txs: txs}, rng.New(18))
	b.ReportAllocs()
	b.ResetTimer()
	sess.Run(g, radio.Options{MaxRounds: b.N, Reception: radio.Fade(0.2)})
}

// BenchmarkPrimitiveDutyCycleRound262144 prices a metered round with a
// staggered 1-in-4 listener schedule active: the awake/asleep split is
// settled through O(Period) phase-residue counters, so a scheduled round
// must cost within noise of BenchmarkPrimitiveEnergyRound262144 and stay
// 0 allocs/op.
func BenchmarkPrimitiveDutyCycleRound262144(b *testing.B) {
	g := bigRGGGraph()
	n := g.N()
	txs := make([]graph.NodeID, 0, n/64)
	for v := 0; v < n; v += 64 {
		txs = append(txs, graph.NodeID(v))
	}
	sess := radio.NewBroadcastSession(n, 0, &pulseSet{txs: txs}, rng.New(18))
	b.ReportAllocs()
	b.ResetTimer()
	sess.Run(g, radio.Options{MaxRounds: b.N,
		Energy: &energy.Spec{Model: energy.CC2420(), Budget: 1e12,
			Schedule: &energy.DutyCycle{Period: 4, On: 1, Stagger: true}}})
}

// --- implicit-topology benchmarks: the generate-free graph.Implicit
// backend on the same workloads as the materialized trajectory points, plus
// the planet-scale acceptance run that cannot exist materialized.

// BenchmarkPrimitiveAlgorithm1RunImplicit1048576 is the implicit twin of
// the million-node acceptance workload: the same n and p as
// BenchmarkPrimitiveAlgorithm1Run1048576, but every neighbourhood is
// re-derived per delivery from (seed, node) instead of read from CSR — the
// per-op delta against the materialized benchmark is the price of
// generate-free adjacency.
func BenchmarkPrimitiveAlgorithm1RunImplicit1048576(b *testing.B) {
	n := 1 << 20
	p := 2 * math.Log(float64(n)) / float64(n)
	g := graph.NewImplicitGNP(n, p, 1)
	sc := radio.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		radio.RunBroadcastWith(sc, g, 0, core.NewAlgorithm1(p), rng.New(uint64(i)),
			radio.Options{MaxRounds: 10000})
	}
}

// BenchmarkPrimitiveImplicitRound262144 is the steady-state round cost of
// the implicit backend under the alloc gate: a warm session repeatedly
// running a fixed 4k-transmitter pulse against implicit G(n,p) rows. The
// reusable row buffer amortises to 0 allocs/op — the engine's
// allocation-free round contract extends to generate-free adjacency.
func BenchmarkPrimitiveImplicitRound262144(b *testing.B) {
	n := 262144
	p := 2 * math.Log(float64(n)) / float64(n)
	g := graph.NewImplicitGNP(n, p, 1)
	txs := make([]graph.NodeID, 0, n/64)
	for v := 0; v < n; v += 64 {
		txs = append(txs, graph.NodeID(v))
	}
	sess := radio.NewBroadcastSession(n, 0, &pulseSet{txs: txs}, rng.New(18))
	b.ReportAllocs()
	b.ResetTimer()
	sess.Run(g, radio.Options{MaxRounds: b.N})
}

// BenchmarkPrimitiveAlgorithm1Run100M is the planet-scale acceptance
// workload of the implicit backend: one complete Algorithm 1 broadcast on a
// 10^8-node generate-free G(n, 8·ln n/n). The ~1.8·10^9 directed edges are
// never stored — every row is an RNG stream — so the run fits in the O(n)
// session footprint that scripts/mem_gate.sh pins. Skipped under -short:
// the PR bench gate runs short (scripts/bench.sh BENCH_FILTER=short), the
// nightly experiments-full leg and the committed BENCH trajectory run it
// in full.
func BenchmarkPrimitiveAlgorithm1Run100M(b *testing.B) {
	if testing.Short() {
		b.Skip("planet-scale run is nightly-only (BENCH_FILTER=full)")
	}
	n := 100_000_000
	p := 8 * math.Log(float64(n)) / float64(n)
	g := graph.NewImplicitGNP(n, p, 1)
	sc := radio.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	var res *radio.Result
	for i := 0; i < b.N; i++ {
		res = radio.RunBroadcastWith(sc, g, 0, core.NewAlgorithm1(p), rng.New(uint64(i)),
			radio.Options{MaxRounds: 100000})
	}
	b.StopTimer()
	if !res.Completed() {
		b.Fatalf("planet-scale broadcast reached only %d of %d nodes", res.Informed, n)
	}
	b.ReportMetric(float64(res.TotalTx)/float64(n), "tx/node")
}
