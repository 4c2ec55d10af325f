package expt

import (
	"fmt"
	"math"
	"time"

	"repro/internal/baseline"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sweep"
)

func init() {
	register(Experiment{ID: "X1", Title: "Random geometric graphs (the §5 future-work model)",
		PaperRef: "§5 Conclusion", Campaign: x1Campaign()})
	register(Experiment{ID: "X4", Title: "Engine: serial vs parallel delivery kernel",
		PaperRef: "implementation", Campaign: x4Campaign()})
}

// x1Variant is one link model of X1: homogeneous or heterogeneous radii
// (multiples of the RGG connectivity radius, resolved per scale).
type x1Variant struct {
	name  string
	rminF float64 // factor of r_c
	rmaxF float64
}

var x1Variants = []x1Variant{
	{"homogeneous r=2r_c", 2, 2},
	{"heterogeneous [r_c, 3r_c]", 1, 3},
}

var x1Protos = []string{"algorithm1 (G(n,p) assumption)", "algorithm3 (D from probe)", "decay"}

func x1Grid(cfg Config) []campaign.Point {
	var pts []campaign.Point
	for _, v := range x1Variants {
		for _, proto := range x1Protos {
			pts = append(pts, campaign.Pt(
				fmt.Sprintf("links=%s/proto=%s", v.name, proto), [2]any{v, proto},
				"links", v.name, "proto", proto))
		}
	}
	return pts
}

func x1Campaign() campaign.Campaign {
	return campaign.Campaign{
		Points: x1Grid,
		Run: func(cfg Config, pt campaign.Point, seed uint64) campaign.Samples {
			n := 600
			if cfg.Full {
				n = 2000
			}
			// Homogeneous radius above the RGG connectivity threshold
			// r ≈ sqrt(log n / (π n)); heterogeneous radii in [r, 3r] introduce
			// the asymmetric links the paper's model allows.
			rConn := math.Sqrt(math.Log(float64(n)) / (math.Pi * float64(n)))
			d := pt.Data.([2]any)
			v := d[0].(x1Variant)
			rmin, rmax := v.rminF*rConn, v.rmaxF*rConn
			// Estimate mean degree and diameter from a probe instance so the
			// protocols get honest parameters (a deployment would know them from
			// site planning; the nodes themselves stay oblivious).
			probeSeed := cfg.Seed ^ 0x9
			key := struct {
				n          int
				rmin, rmax float64
				seed       uint64
			}{n, rmin, rmax, probeSeed}
			meanDeg, Dest := memoProbe(key, func() *graph.Digraph {
				g, _ := graph.NewScratch().RandomGeometric(n, rmin, rmax, rng.New(probeSeed))
				return g
			}, probeSeed^0x90)
			pEff := meanDeg / float64(n)
			var makeProto func() radio.Broadcaster
			switch d[1].(string) {
			case x1Protos[0]:
				makeProto = func() radio.Broadcaster { return core.NewAlgorithm1(pEff) }
			case x1Protos[1]:
				makeProto = func() radio.Broadcaster { return core.NewAlgorithm3(n, Dest, 2) }
			default:
				makeProto = func() radio.Broadcaster { return baseline.NewDecay(2*Dest + 16) }
			}
			return runBroadcastTrials(cfg, seed, broadcastTrial{
				makeGraph: func(seed uint64, sc *graph.Scratch) (*graph.Digraph, graph.NodeID) {
					g, _ := sc.RandomGeometric(n, rmin, rmax, rng.New(seed))
					return g, 0
				},
				makeProto: makeProto,
				opts:      radio.Options{MaxRounds: 200000},
			})
		},
		Render: func(cfg Config, v campaign.View) []*sweep.Table {
			n := 600
			if cfg.Full {
				n = 2000
			}
			t := sweep.NewTable(
				fmt.Sprintf("X1: broadcasting on random geometric graphs (n=%d)", n),
				"links", "protocol", "success", "informed fraction", "rounds", "tx/node")
			for _, pt := range x1Grid(cfg) {
				d := pt.Data.([2]any)
				out := v.Samples(pt.Key)
				rounds := math.NaN()
				if sweep.RateOf(out, mSuccess) > 0 {
					rounds = sweep.MeanOf(out, mRounds)
				}
				t.AddRow(d[0].(x1Variant).name, d[1].(string),
					sweep.F(sweep.RateOf(out, mSuccess)),
					sweep.F(sweep.MeanOf(out, mInformedF)),
					sweep.F(rounds), sweep.F(sweep.MeanOf(out, mTxPerNode)))
			}
			t.Note = "The §5 future-work model. Algorithm 1's analysis leans on G(n,p)'s lack of " +
				"locality: on geometric graphs the Phase-1 frontier only reaches geometrically " +
				"nearby nodes, so coverage degrades (informed fraction < 1) while the " +
				"diameter-aware Algorithm 3 and Decay stay robust. Heterogeneous radii add " +
				"asymmetric links without changing that picture."
			return []*sweep.Table{t}
		},
	}
}

// x4Kernel is one delivery-kernel configuration.
type x4Kernel struct {
	name     string
	parallel bool
	workers  int
}

var x4Kernels = []x4Kernel{
	{"serial", false, 1},
	{"parallel", true, 2}, {"parallel", true, 4},
	{"parallel", true, 8}, {"parallel", true, 16},
}

// x4Campaign measures delivery-kernel throughput. Its samples contain
// wall-clock timings, so — alone among the campaigns — its records are not
// reproducible byte-for-byte across runs or hosts; the checksum samples
// still are.
func x4Campaign() campaign.Campaign {
	return campaign.Campaign{
		Points: func(cfg Config) []campaign.Point {
			return []campaign.Point{campaign.Pt("kernels", nil)}
		},
		Run: func(cfg Config, pt campaign.Point, seed uint64) campaign.Samples {
			n := 30000
			rounds := 40
			if cfg.Full {
				n = 120000
				rounds = 60
			}
			p := 8 * math.Log(float64(n)) / float64(n)
			g := graph.GNPDirected(n, p, rng.New(seed))
			s := campaign.Samples{
				"n":       {float64(n)},
				"rounds":  {float64(rounds)},
				"meanDeg": {float64(g.M()) / float64(n)},
			}
			for _, k := range x4Kernels {
				proto := &baseline.FixedProb{Q: 0.2}
				start := time.Now()
				res := radio.RunBroadcast(g, 0, proto, rng.New(seed^7),
					radio.Options{MaxRounds: rounds, Parallel: k.parallel, Workers: k.workers})
				dur := time.Since(start)
				sum := res.TotalTx + int64(res.Informed)*1000003 + res.Collisions
				s["nanos"] = append(s["nanos"], float64(dur.Nanoseconds()))
				s["checksum"] = append(s["checksum"], float64(sum))
			}
			return s
		},
		Render: func(cfg Config, v campaign.View) []*sweep.Table {
			s := v.Samples("kernels")
			n := int(s["n"][0])
			rounds := int(s["rounds"][0])
			meanDeg := s["meanDeg"][0]
			t := sweep.NewTable(
				fmt.Sprintf("X4: delivery-kernel throughput (G(n=%d,p), %d rounds of q=0.2 flooding)", n, rounds),
				"kernel", "workers", "wall time", "edges scanned/s", "result checksum")
			for i, k := range x4Kernels {
				dur := time.Duration(int64(s["nanos"][i]))
				sum := int64(s["checksum"][i])
				// Rough work estimate: transmitters ≈ 0.2·n per round, each
				// scanning its out-degree ≈ meanDeg edges.
				edges := 0.2 * float64(n) * meanDeg * float64(rounds)
				t.AddRow(k.name, sweep.FInt(k.workers), dur.Round(time.Millisecond).String(),
					sweep.F(edges/dur.Seconds()), sweep.FInt(int(sum%1000000)))
			}
			agree := "identical results across kernels"
			for _, c := range s["checksum"] {
				if c != s["checksum"][0] {
					agree = "KERNEL MISMATCH"
				}
			}
			t.Note = "The receiver-sharded two-pass kernel (per-worker buckets, then contention-free " +
				"per-shard counting) is bit-identical to the serial kernel — " + agree + ". It uses " +
				"no atomics; its win over serial requires real cores and hit arrays too big for " +
				"cache (million-node rounds), else the extra bucket traffic dominates. The harness " +
				"still parallelises across independent trials for sweeps, which scales linearly — " +
				"the kernel matters for single very large runs."
			return []*sweep.Table{t}
		},
	}
}
