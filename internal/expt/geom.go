package expt

// The G battery: broadcasting and gossiping on the geometric ad hoc
// topologies the paper's model is meant for — random geometric / unit-disk
// graphs around the connectivity threshold, heterogeneous transmit power,
// clustered deployments, and mobile epochs (internal/graph geom.go +
// mobility.go). All trial loops generate topologies through the per-worker
// graph.Scratch, so sweeps stay allocation-free. Probe quantities a site
// survey would measure (mean degree, sampled diameter) are recorded as
// samples, so rendered tables come entirely from the record stream.

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/baseline"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sweep"
)

func init() {
	register(Experiment{ID: "G1", Title: "Broadcast on RGG vs radius around the connectivity threshold",
		PaperRef: "§5 geometric model; Gupta–Kumar threshold", Campaign: g1Campaign()})
	register(Experiment{ID: "G2", Title: "Gossip on unit-disk graphs",
		PaperRef: "Thm 3.2 protocol off its G(n,p) home turf", Campaign: g2Campaign()})
	register(Experiment{ID: "G3", Title: "Heterogeneous transmit power: asymmetric geometric links",
		PaperRef: "§1.2 asymmetric ranges, geometric setting", Campaign: g3Campaign()})
	register(Experiment{ID: "G4", Title: "Clustered (Matérn) deployments vs uniform placement",
		PaperRef: "density-heterogeneous ad hoc networks", Campaign: g4Campaign()})
	register(Experiment{ID: "G5", Title: "Mobile geometric broadcast: waypoint vs resample epochs",
		PaperRef: "§1 mobility motivation, random-waypoint model", Campaign: g5Campaign()})
	register(Experiment{ID: "G6", Title: "RGG scale sweep at fixed 2·r_c",
		PaperRef: "geometric diameter scaling", Campaign: g6Campaign()})
}

// geomProbe estimates honest protocol parameters (mean degree, sampled
// diameter) from one probe instance of spec, the way a site survey would.
func geomProbe(spec graph.GeomSpec, seed uint64) (meanDeg float64, diam int) {
	key := struct {
		spec graph.GeomSpec
		seed uint64
	}{spec, seed}
	return memoProbe(key, func() *graph.Digraph {
		g, _ := graph.Geometric(spec, rng.New(seed))
		return g
	}, seed^0x99)
}

// probes memoizes memoProbe's results by key.
var probes sync.Map

// memoProbe returns the mean out-degree and the sampled diameter (at least
// 2) of the probe graph build makes, memoized per key: key must fix
// everything build and diamSeed depend on, since a probe is a pure function
// of them, and several grid points of one experiment share a probe that the
// imperative loops computed once.
func memoProbe(key any, build func() *graph.Digraph, diamSeed uint64) (meanDeg float64, diam int) {
	type probe struct {
		meanDeg float64
		diam    int
	}
	if v, ok := probes.Load(key); ok {
		p := v.(probe)
		return p.meanDeg, p.diam
	}
	g := build()
	meanDeg = float64(g.M()) / float64(g.N())
	diam = max(graph.DiameterSampled(g, 32, rng.New(diamSeed)), 2)
	probes.Store(key, probe{meanDeg, diam})
	return meanDeg, diam
}

var (
	g1Factors = []float64{0.8, 1.0, 1.2, 1.5, 2.0, 3.0}
	g1Protos  = []string{"algorithm3", "decay"}
)

func g1Scale(cfg Config) int {
	if cfg.Full {
		return 1600
	}
	return 400
}

func g1Grid(cfg Config) []campaign.Point {
	var pts []campaign.Point
	for _, factor := range g1Factors {
		for _, proto := range g1Protos {
			pts = append(pts, campaign.Pt(
				fmt.Sprintf("r=%s/proto=%s", sweep.F(factor), proto), [2]any{factor, proto},
				"r/r_c", sweep.F(factor), "proto", proto))
		}
	}
	return pts
}

func g1Campaign() campaign.Campaign {
	return campaign.Campaign{
		Points: g1Grid,
		Run: func(cfg Config, pt campaign.Point, seed uint64) campaign.Samples {
			n := g1Scale(cfg)
			rc := graph.ConnectivityRadius(n)
			d := pt.Data.([2]any)
			factor := d[0].(float64)
			spec := graph.GeomSpec{N: n, Radius: factor * rc, Torus: true}
			meanDeg, Dest := geomProbe(spec, cfg.Seed^0x51)
			makeProto := func() radio.Broadcaster { return core.NewAlgorithm3(n, Dest, 2) }
			if d[1].(string) == "decay" {
				makeProto = func() radio.Broadcaster { return baseline.NewDecay(2*Dest + 16) }
			}
			out := runBroadcastTrials(cfg, seed, broadcastTrial{
				makeGraph: func(seed uint64, sc *graph.Scratch) (*graph.Digraph, graph.NodeID) {
					g, _ := sc.Geometric(spec, rng.New(seed))
					return g, 0
				},
				makeProto: makeProto,
				opts:      radio.Options{MaxRounds: 200000},
			})
			out["probeMeanDeg"] = []float64{meanDeg}
			return out
		},
		Render: func(cfg Config, v campaign.View) []*sweep.Table {
			n := g1Scale(cfg)
			rc := graph.ConnectivityRadius(n)
			t := sweep.NewTable(
				fmt.Sprintf("G1: broadcast on RGG(n=%d) vs radius (torus, r_c=%.4f)", n, rc),
				"r/r_c", "mean degree", "protocol", "success", "informed fraction", "rounds", "tx/node")
			for _, pt := range g1Grid(cfg) {
				d := pt.Data.([2]any)
				out := v.Samples(pt.Key)
				rounds := math.NaN()
				if sweep.RateOf(out, mSuccess) > 0 {
					rounds = sweep.MeanOf(out, mRounds)
				}
				t.AddRow(sweep.F(d[0].(float64)), sweep.F(out["probeMeanDeg"][0]), d[1].(string),
					sweep.F(sweep.RateOf(out, mSuccess)),
					sweep.F(sweep.MeanOf(out, mInformedF)),
					sweep.F(rounds), sweep.F(sweep.MeanOf(out, mTxPerNode)))
			}
			t.Note = "The energy–time picture across the connectivity transition: below r_c the source's " +
				"component caps the informed fraction regardless of energy; just above r_c the graph " +
				"connects but long thin paths inflate rounds; by 2–3·r_c the diameter shrinks and " +
				"both protocols cheapen. Radii are multiples of r_c = sqrt(ln n/(π n))."
			return []*sweep.Table{t}
		},
	}
}

var g2Protos = []string{"algorithm2 (p from probe)", "uniform q=0.05", "tdma"}

func g2Scale(cfg Config) int {
	if cfg.Full {
		return 512
	}
	return 256
}

func g2Grid(cfg Config) []campaign.Point {
	var pts []campaign.Point
	for _, proto := range g2Protos {
		pts = append(pts, campaign.Pt("proto="+proto, proto, "proto", proto))
	}
	return pts
}

func g2Campaign() campaign.Campaign {
	return campaign.Campaign{
		Points: g2Grid,
		Run: func(cfg Config, pt campaign.Point, seed uint64) campaign.Samples {
			n := g2Scale(cfg)
			rc := graph.ConnectivityRadius(n)
			spec := graph.GeomSpec{N: n, Radius: 2 * rc, Torus: true}
			meanDeg, _ := geomProbe(spec, cfg.Seed^0x52)
			pEff := meanDeg / float64(n)
			var mk func() radio.Gossiper
			var budget int
			switch pt.Data.(string) {
			case g2Protos[0]:
				mk, budget = func() radio.Gossiper { return core.NewAlgorithm2(pEff) }, core.NewAlgorithm2(pEff).RoundBudget(n)
			case g2Protos[1]:
				mk, budget = func() radio.Gossiper { return &baseline.UniformGossip{Q: 0.05} }, 100000
			default:
				mk, budget = func() radio.Gossiper { return &baseline.TDMAGossip{} }, n*2*n
			}
			out := runSweep(cfg, seed, func(tr sweep.Trial) sweep.Metrics {
				ts := scratchOf(tr)
				g, _ := ts.graph.Geometric(spec, rng.New(tr.Seed))
				res := radio.RunGossipWith(ts.radio, g, mk(), rng.New(rng.SubSeed(tr.Seed, 1)),
					radio.GossipOptions{MaxRounds: budget, StopWhenComplete: true})
				m := sweep.Metrics{"success": 0, "rounds": math.NaN(),
					"txPerNode": res.TxPerNode(), "maxNodeTx": float64(res.MaxNodeTx)}
				if res.Completed() {
					m["success"] = 1
					m["rounds"] = float64(res.CompleteRound)
				}
				return m
			})
			out["probeMeanDeg"] = []float64{meanDeg}
			return out
		},
		Render: func(cfg Config, v campaign.View) []*sweep.Table {
			n := g2Scale(cfg)
			pts := g2Grid(cfg)
			meanDeg := v.Samples(pts[0].Key)["probeMeanDeg"][0]
			t := sweep.NewTable(
				fmt.Sprintf("G2: gossip on the unit-disk graph UDG(n=%d, 2·r_c) — mean degree %.1f", n, meanDeg),
				"protocol", "success", "rounds", "tx/node", "max tx/node")
			for _, pt := range pts {
				out := v.Samples(pt.Key)
				rounds := math.NaN()
				if sweep.RateOf(out, "success") > 0 {
					rounds = sweep.MeanOf(out, "rounds")
				}
				t.AddRow(pt.Data.(string), sweep.F(sweep.RateOf(out, "success")), sweep.F(rounds),
					sweep.F(sweep.MeanOf(out, "txPerNode")), sweep.F(sweep.MeanOf(out, "maxNodeTx")))
			}
			t.Note = "Algorithm 2's O(d·log n) analysis leans on G(n,p)'s expander-like mixing; the " +
				"unit-disk graph has geometric diameter Θ(√(n/ln n)), so rumors must travel " +
				"hop-by-hop. The comparison quantifies how much of the protocol's speed survives " +
				"the topology class the ad hoc literature actually studies."
			return []*sweep.Table{t}
		},
	}
}

var g3Ratios = []float64{1, 2, 4}

func g3Scale(cfg Config) int {
	if cfg.Full {
		return 1200
	}
	return 500
}

func g3Grid(cfg Config) []campaign.Point {
	var pts []campaign.Point
	for _, ratio := range g3Ratios {
		pts = append(pts, campaign.Pt(fmt.Sprintf("ratio=%s", sweep.F(ratio)), ratio,
			"r_max/r_min", sweep.F(ratio)))
	}
	return pts
}

func g3Campaign() campaign.Campaign {
	return campaign.Campaign{
		Points: g3Grid,
		Run: func(cfg Config, pt campaign.Point, seed uint64) campaign.Samples {
			n := g3Scale(cfg)
			rc := graph.ConnectivityRadius(n)
			base := 1.5 * rc
			ratio := pt.Data.(float64)
			spec := graph.GeomSpec{N: n, Radius: base, RadiusMax: ratio * base, Torus: true}
			probe, _ := graph.Geometric(spec, rng.New(cfg.Seed^0x53))
			asym := graph.AsymmetricEdges(probe)
			meanDeg := float64(probe.M()) / float64(n)
			Dest := graph.DiameterSampled(probe, 32, rng.New(cfg.Seed^0x54))
			if Dest < 2 {
				Dest = 2
			}
			out := runBroadcastTrials(cfg, seed, broadcastTrial{
				makeGraph: func(seed uint64, sc *graph.Scratch) (*graph.Digraph, graph.NodeID) {
					g, _ := sc.Geometric(spec, rng.New(seed))
					return g, 0
				},
				makeProto: func() radio.Broadcaster { return core.NewAlgorithm3(n, Dest, 2) },
				opts:      radio.Options{MaxRounds: 200000},
			})
			out["probeAsymFrac"] = []float64{float64(asym) / float64(probe.M())}
			out["probeMeanDeg"] = []float64{meanDeg}
			return out
		},
		Render: func(cfg Config, v campaign.View) []*sweep.Table {
			n := g3Scale(cfg)
			t := sweep.NewTable(
				fmt.Sprintf("G3: heterogeneous transmit power on RGG(n=%d), base radius 1.5·r_c", n),
				"r_max/r_min", "one-way links", "mean out-degree", "success", "informed fraction", "rounds", "tx/node")
			for _, pt := range g3Grid(cfg) {
				out := v.Samples(pt.Key)
				rounds := math.NaN()
				if sweep.RateOf(out, mSuccess) > 0 {
					rounds = sweep.MeanOf(out, mRounds)
				}
				t.AddRow(sweep.F(pt.Data.(float64)), fmt.Sprintf("%.2f", out["probeAsymFrac"][0]),
					sweep.F(out["probeMeanDeg"][0]),
					sweep.F(sweep.RateOf(out, mSuccess)),
					sweep.F(sweep.MeanOf(out, mInformedF)),
					sweep.F(rounds), sweep.F(sweep.MeanOf(out, mTxPerNode)))
			}
			t.Note = "Per-node radii uniform in [r, ratio·r]: strong radios reach far but hear only " +
				"whoever reaches them, so a growing fraction of links is one-way — the paper's " +
				"motivating asymmetry, realised geometrically. Extra range densifies the graph " +
				"(shorter diameter, fewer rounds) while the oblivious protocol stays correct " +
				"because it never relies on acknowledgements."
			return []*sweep.Table{t}
		},
	}
}

var g4Placements = []string{"uniform", "clustered (√n parents)", "clustered (8 tight blobs)"}

func g4Scale(cfg Config) int {
	if cfg.Full {
		return 1500
	}
	return 600
}

// g4Spec builds the geometric spec for a placement variant.
func g4Spec(name string, n int, r float64) graph.GeomSpec {
	switch name {
	case g4Placements[1]:
		return graph.GeomSpec{N: n, Radius: r, Torus: true, Placement: graph.PlaceCluster}
	case g4Placements[2]:
		return graph.GeomSpec{N: n, Radius: r, Torus: true,
			Placement: graph.PlaceCluster, Clusters: 8, Spread: r}
	default:
		return graph.GeomSpec{N: n, Radius: r, Torus: true}
	}
}

func g4Grid(cfg Config) []campaign.Point {
	var pts []campaign.Point
	for _, name := range g4Placements {
		pts = append(pts, campaign.Pt("placement="+name, name, "placement", name))
	}
	return pts
}

func g4Campaign() campaign.Campaign {
	return campaign.Campaign{
		Points: g4Grid,
		Run: func(cfg Config, pt campaign.Point, seed uint64) campaign.Samples {
			n := g4Scale(cfg)
			r := 2 * graph.ConnectivityRadius(n)
			spec := g4Spec(pt.Data.(string), n, r)
			probe, _ := graph.Geometric(spec, rng.New(cfg.Seed^0x55))
			deg := graph.Degrees(probe)
			Dest := graph.DiameterSampled(probe, 32, rng.New(cfg.Seed^0x56))
			if Dest < 2 {
				Dest = 2
			}
			out := runBroadcastTrials(cfg, seed, broadcastTrial{
				makeGraph: func(seed uint64, sc *graph.Scratch) (*graph.Digraph, graph.NodeID) {
					g, _ := sc.Geometric(spec, rng.New(seed))
					return g, 0
				},
				makeProto: func() radio.Broadcaster { return core.NewAlgorithm3(n, Dest, 2) },
				opts:      radio.Options{MaxRounds: 200000},
			})
			out["probeMeanOut"] = []float64{deg.MeanOut}
			out["probeMaxOverMean"] = []float64{float64(deg.MaxOut) / deg.MeanOut}
			out["probeDiam"] = []float64{float64(Dest)}
			return out
		},
		Render: func(cfg Config, v campaign.View) []*sweep.Table {
			n := g4Scale(cfg)
			t := sweep.NewTable(
				fmt.Sprintf("G4: uniform vs Matérn-clustered placement (n=%d, radius 2·r_c)", n),
				"placement", "mean degree", "max/mean degree", "diameter", "success", "informed fraction", "rounds", "tx/node")
			for _, pt := range g4Grid(cfg) {
				out := v.Samples(pt.Key)
				rounds := math.NaN()
				if sweep.RateOf(out, mSuccess) > 0 {
					rounds = sweep.MeanOf(out, mRounds)
				}
				t.AddRow(pt.Data.(string), sweep.F(out["probeMeanOut"][0]), sweep.F(out["probeMaxOverMean"][0]),
					sweep.FInt(int(out["probeDiam"][0])),
					sweep.F(sweep.RateOf(out, mSuccess)),
					sweep.F(sweep.MeanOf(out, mInformedF)),
					sweep.F(rounds), sweep.F(sweep.MeanOf(out, mTxPerNode)))
			}
			t.Note = "Matérn clustering concentrates nodes into dense blobs: intra-blob collisions get " +
				"worse (max degree far above the mean) while blobs separated by more than the radius " +
				"disconnect the network outright — informed fraction, not energy, is what clustering " +
				"threatens. The uniform row is the G1 reference point."
			return []*sweep.Table{t}
		},
	}
}

// g5Scenario names one mobility model of the G5/N5 scenario set.
var g5Scenarios = []string{
	"static (no movement)",
	"waypoint, slow (v ≈ 0.5·r per epoch)",
	"waypoint, fast (v ≈ 2·r per epoch)",
	"resample every epoch",
}

// buildMobility constructs the mobile network for a named scenario (nil for
// the static one).
func buildMobility(name string, spec graph.GeomSpec, sub float64, seed uint64) *graph.MobileNetwork {
	switch name {
	case g5Scenarios[1]:
		return graph.NewMobileNetwork(spec, graph.MobilityWaypoint, 0.3*sub, 0.7*sub, rng.New(seed))
	case g5Scenarios[2]:
		return graph.NewMobileNetwork(spec, graph.MobilityWaypoint, 1.5*sub, 2.5*sub, rng.New(seed))
	case g5Scenarios[3]:
		return graph.NewMobileNetwork(spec, graph.MobilityResample, 0, 0, rng.New(seed))
	default:
		return nil
	}
}

func g5Scale(cfg Config) int {
	if cfg.Full {
		return 700
	}
	return 300
}

// g5Epochs/g5EpochLen are the G5 epoch schedule, shared by Run and Render
// (the table title reports them).
const (
	g5Epochs   = 30
	g5EpochLen = 30
)

func g5Grid(cfg Config) []campaign.Point {
	var pts []campaign.Point
	for _, name := range g5Scenarios {
		pts = append(pts, campaign.Pt("mobility="+name, name, "mobility", name))
	}
	return pts
}

func g5Campaign() campaign.Campaign {
	return campaign.Campaign{
		Points: g5Grid,
		Run: func(cfg Config, pt campaign.Point, seed uint64) campaign.Samples {
			n := g5Scale(cfg)
			rc := graph.ConnectivityRadius(n)
			sub := 0.8 * rc // below the threshold: static pockets strand the broadcast
			dGuess := int(2 / sub)
			spec := graph.GeomSpec{N: n, Radius: sub, Torus: true}
			name := pt.Data.(string)
			return runSweep(cfg, seed, func(tr sweep.Trial) sweep.Metrics {
				ts := scratchOf(tr)
				proto := core.NewAlgorithm3(n, dGuess, 8) // wide window: survives epochs
				sess := radio.NewBroadcastSession(n, 0, proto, rng.New(rng.SubSeed(tr.Seed, 1)))
				mob := buildMobility(name, spec, sub, tr.Seed)
				var static *graph.Digraph
				if mob == nil {
					// Static: one topology for the whole run. Nothing else
					// touches the scratch in this branch, so the graph stays
					// valid.
					static, _ = ts.graph.Geometric(spec, rng.New(tr.Seed))
				}
				var res *radio.Result
				for e := 0; e < g5Epochs; e++ {
					g := static
					if mob != nil {
						g = mob.Snapshot(ts.graph)
					}
					res = sess.Run(g, radio.Options{MaxRounds: g5EpochLen, StopWhenInformed: true})
					if res.Completed() {
						break
					}
					if mob != nil {
						mob.Advance()
					}
				}
				m := sweep.Metrics{"success": 0,
					"informedFrac": float64(res.Informed) / float64(n),
					"rounds":       math.NaN()}
				if res.Completed() {
					m["success"] = 1
					m["rounds"] = float64(res.InformedRound)
				}
				return m
			})
		},
		Render: func(cfg Config, v campaign.View) []*sweep.Table {
			n := g5Scale(cfg)
			t := sweep.NewTable(
				fmt.Sprintf("G5: mobile geometric broadcast at subcritical radius 0.8·r_c (n=%d, %d epochs × %d rounds)",
					n, g5Epochs, g5EpochLen),
				"mobility", "success", "informed fraction", "rounds to complete")
			for _, pt := range g5Grid(cfg) {
				out := v.Samples(pt.Key)
				rounds := math.NaN()
				if sweep.RateOf(out, "success") > 0 {
					rounds = sweep.MeanOf(out, "rounds")
				}
				t.AddRow(pt.Data.(string), sweep.F(sweep.RateOf(out, "success")),
					sweep.F(sweep.MeanOf(out, "informedFrac")), sweep.F(rounds))
			}
			t.Note = "Below the connectivity threshold a static network strands the broadcast in the " +
				"source's pocket. Movement substitutes for density: even slow random-waypoint motion " +
				"lets the informed set leak between pockets across epochs, and full re-sampling " +
				"(teleport mobility) is the best case. Knowledge is carried across topology changes " +
				"by radio.BroadcastSession; the oblivious protocol just follows its schedule."
			return []*sweep.Table{t}
		},
	}
}

func g6Sizes(cfg Config) []int {
	ns := []int{256, 1024, 4096}
	if cfg.Full {
		ns = append(ns, 16384)
	}
	return ns
}

func g6Grid(cfg Config) []campaign.Point {
	var pts []campaign.Point
	for _, n := range g6Sizes(cfg) {
		pts = append(pts, campaign.Pt(fmt.Sprintf("n=%d", n), n, "n", fmt.Sprint(n)))
	}
	return pts
}

func g6Campaign() campaign.Campaign {
	return campaign.Campaign{
		Points: g6Grid,
		Run: func(cfg Config, pt campaign.Point, seed uint64) campaign.Samples {
			n := pt.Data.(int)
			rc := graph.ConnectivityRadius(n)
			spec := graph.GeomSpec{N: n, Radius: 2 * rc, Torus: true}
			meanDeg, Dest := geomProbe(spec, cfg.Seed^0x57)
			out := runBroadcastTrials(cfg, seed, broadcastTrial{
				makeGraph: func(seed uint64, sc *graph.Scratch) (*graph.Digraph, graph.NodeID) {
					g, _ := sc.Geometric(spec, rng.New(seed))
					return g, 0
				},
				makeProto: func() radio.Broadcaster { return core.NewAlgorithm3(n, Dest, 2) },
				opts:      radio.Options{MaxRounds: 400000},
			})
			out["probeMeanDeg"] = []float64{meanDeg}
			out["probeDiam"] = []float64{float64(Dest)}
			return out
		},
		Render: func(cfg Config, v campaign.View) []*sweep.Table {
			t := sweep.NewTable(
				"G6: RGG scale sweep at radius 2·r_c (torus)",
				"n", "r_c", "mean degree", "diameter", "rounds", "rounds/diameter", "tx/node")
			for _, pt := range g6Grid(cfg) {
				n := pt.Data.(int)
				rc := graph.ConnectivityRadius(n)
				out := v.Samples(pt.Key)
				Dest := int(out["probeDiam"][0])
				rounds := math.NaN()
				if sweep.RateOf(out, mSuccess) > 0 {
					rounds = sweep.MeanOf(out, mRounds)
				}
				t.AddRow(sweep.FInt(n), fmt.Sprintf("%.4f", rc), sweep.F(out["probeMeanDeg"][0]), sweep.FInt(Dest),
					sweep.F(rounds), sweep.F(rounds/float64(Dest)),
					sweep.F(sweep.MeanOf(out, mTxPerNode)))
			}
			t.Note = "At r = 2·r_c the mean degree grows like 4·ln n while the hop diameter grows like " +
				"√(n/ln n) — the geometric regime where broadcast time is diameter-bound, unlike " +
				"G(n,p)'s logarithmic diameter. rounds/diameter holding near-constant shows " +
				"Algorithm 3 pays a per-hop constant, the right cost model for these networks."
			return []*sweep.Table{t}
		},
	}
}
