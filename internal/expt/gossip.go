package expt

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sweep"
)

func init() {
	register(Experiment{ID: "E6", Title: "Algorithm 2 gossip on G(n,p)",
		PaperRef: "Theorem 3.2", Campaign: e6Campaign()})
}

// e6Point is one (n, d=np) gossip instance.
type e6Point struct {
	n int
	d float64
}

// e6Grid enumerates the three point families of E6's tables: the (n, d)
// scaling grid (a/...), the TDMA contrast (b/...), and the sequential-
// broadcast contrast (c/...).
func e6Grid(cfg Config) (scaling, tdma, seq []campaign.Point) {
	pts := []e6Point{{128, 24}, {256, 24}, {512, 32}}
	if cfg.Full {
		pts = append(pts, e6Point{1024, 32}, e6Point{1024, 64})
	}
	for _, p := range pts {
		scaling = append(scaling, campaign.Pt(
			fmt.Sprintf("a/n=%d/d=%s", p.n, sweep.F(p.d)), p,
			"n", fmt.Sprint(p.n), "d", sweep.F(p.d)))
	}
	for _, proto := range []string{"algorithm2", "tdma"} {
		tdma = append(tdma, campaign.Pt("b/proto="+proto, proto, "proto", proto))
	}
	for _, proto := range []string{"sequential", "algorithm2"} {
		seq = append(seq, campaign.Pt("c/proto="+proto, proto, "proto", proto))
	}
	return scaling, tdma, seq
}

// gossipMetrics extracts the standard gossip metric set from one run.
func gossipMetrics(res *radio.GossipResult) sweep.Metrics {
	m := sweep.Metrics{"success": 0, "rounds": math.NaN(),
		"txPerNode": res.TxPerNode(), "maxNodeTx": float64(res.MaxNodeTx)}
	if res.Completed() {
		m["success"] = 1
		m["rounds"] = float64(res.CompleteRound)
	}
	return m
}

func e6Campaign() campaign.Campaign {
	points := func(cfg Config) []campaign.Point {
		a, b, c := e6Grid(cfg)
		return append(append(a, b...), c...)
	}
	return campaign.Campaign{
		Points: points,
		Run: func(cfg Config, pt campaign.Point, seed uint64) campaign.Samples {
			switch {
			case pt.Key[0] == 'a':
				p0 := pt.Data.(e6Point)
				p := p0.d / float64(p0.n)
				return runSweep(cfg, seed, func(tr sweep.Trial) sweep.Metrics {
					ts := scratchOf(tr)
					g := ts.graph.GNPDirected(p0.n, p, rng.New(tr.Seed))
					a := core.NewAlgorithm2(p)
					res := radio.RunGossipWith(ts.radio, g, a, rng.New(rng.SubSeed(tr.Seed, 1)), radio.GossipOptions{
						MaxRounds: a.RoundBudget(p0.n), StopWhenComplete: true,
					})
					return gossipMetrics(res)
				})
			case pt.Key[0] == 'b':
				// Contrast with the deterministic TDMA schedule: collision-free
				// but needs Θ(n·D) rounds and Θ(D) transmissions per node.
				n := 256
				d := 24.0
				p := d / float64(n)
				makeProto := func() radio.Gossiper { return core.NewAlgorithm2(p) }
				caps := core.NewAlgorithm2(p).RoundBudget(n)
				if pt.Data.(string) == "tdma" {
					makeProto = func() radio.Gossiper { return &baseline.TDMAGossip{} }
					caps = n * 64
				}
				return runSweep(cfg, seed, func(tr sweep.Trial) sweep.Metrics {
					ts := scratchOf(tr)
					g := ts.graph.GNPDirected(n, p, rng.New(tr.Seed))
					res := radio.RunGossipWith(ts.radio, g, makeProto(), rng.New(rng.SubSeed(tr.Seed, 1)),
						radio.GossipOptions{MaxRounds: caps, StopWhenComplete: true})
					return gossipMetrics(res)
				})
			default:
				// E6c: the §3 motivation — gossip by sequentially broadcasting
				// every rumor with Algorithm 1 costs O(n·log n) rounds;
				// Algorithm 2 exploits the random topology for O(d·log n).
				nc := 128
				pc := 0.4 // np² = 20: every component broadcast has safe Phase-3 capacity
				if pt.Data.(string) == "sequential" {
					return sweep.RunTrials(trials(cfg), seed, cfg.Workers, func(tr sweep.Trial) sweep.Metrics {
						g := graph.GNPDirected(nc, pc, rng.New(tr.Seed))
						res := core.RunSequentialGossip(g, pc, rng.New(rng.SubSeed(tr.Seed, 1)), 10000)
						m := sweep.Metrics{"success": 0, "rounds": float64(res.Rounds), "tx": float64(res.TotalTx)}
						if res.Success() {
							m["success"] = 1
						}
						return m
					})
				}
				return runSweep(cfg, seed, func(tr sweep.Trial) sweep.Metrics {
					ts := scratchOf(tr)
					g := ts.graph.GNPDirected(nc, pc, rng.New(tr.Seed))
					a := core.NewAlgorithm2(pc)
					res := radio.RunGossipWith(ts.radio, g, a, rng.New(rng.SubSeed(tr.Seed, 1)), radio.GossipOptions{
						MaxRounds: a.RoundBudget(nc), StopWhenComplete: true,
					})
					m := sweep.Metrics{"success": 0, "rounds": math.NaN(), "tx": float64(res.TotalTx)}
					if res.Completed() {
						m["success"] = 1
						m["rounds"] = float64(res.CompleteRound)
					}
					return m
				})
			}
		},
		Render: func(cfg Config, v campaign.View) []*sweep.Table {
			scaling, tdma, seq := e6Grid(cfg)
			t := sweep.NewTable("E6: Algorithm 2 gossip on G(n,p) (Theorem 3.2)",
				"n", "d=np", "success", "rounds", "rounds/(d·log2 n)",
				"tx/node", "tx/node / log2 n", "max tx/node")
			for _, pt := range scaling {
				p0 := pt.Data.(e6Point)
				out := v.Samples(pt.Key)
				rounds := sweep.MeanOf(out, "rounds")
				txn := sweep.MeanOf(out, "txPerNode")
				l2 := log2(float64(p0.n))
				t.AddRow(sweep.FInt(p0.n), sweep.F(p0.d),
					sweep.F(sweep.RateOf(out, "success")),
					sweep.F(rounds), sweep.F(rounds/(p0.d*l2)),
					sweep.F(txn), sweep.F(txn/l2),
					sweep.F(sweep.MeanOf(out, "maxNodeTx")))
			}
			t.Note = "Theorem 3.2: gossip completes in O(d·log n) rounds (column 5 near-constant) with " +
				"O(log n) transmissions per node (column 7 near-constant). Runs stop at completion, " +
				"so tx/node reflects the energy actually needed."

			t2 := sweep.NewTable("E6b: Algorithm 2 vs TDMA round-robin (n=256, d=24)",
				"protocol", "success", "rounds", "tx/node (mean)", "max tx/node")
			for _, pt := range tdma {
				out := v.Samples(pt.Key)
				t2.AddRow(pt.Data.(string), sweep.F(sweep.RateOf(out, "success")),
					sweep.F(sweep.MeanOf(out, "rounds")),
					sweep.F(sweep.MeanOf(out, "txPerNode")),
					sweep.F(sweep.MeanOf(out, "maxNodeTx")))
			}
			t2.Note = "TDMA is collision-free and spends only Θ(D) transmissions per node (cheap on " +
				"this diameter-2 graph), but it pays Θ(n) rounds per sweep — already 2× slower at " +
				"n=256, with the gap growing linearly in n. Algorithm 2 finishes in O(d·log n) " +
				"rounds at O(log n) transmissions per node regardless of n."

			t3 := sweep.NewTable("E6c: Algorithm 2 vs sequential Algorithm-1 broadcasts (n=128, §3 intro)",
				"protocol", "success", "rounds", "total tx")
			outSeq := v.Samples(seq[0].Key)
			outA2 := v.Samples(seq[1].Key)
			t3.AddRow("algorithm2", sweep.F(sweep.RateOf(outA2, "success")),
				sweep.F(sweep.MeanOf(outA2, "rounds")), sweep.F(sweep.MeanOf(outA2, "tx")))
			t3.AddRow("sequential algorithm-1 broadcasts", sweep.F(sweep.RateOf(outSeq, "success")),
				sweep.F(sweep.MeanOf(outSeq, "rounds")), sweep.F(sweep.MeanOf(outSeq, "tx")))
			t3.Note = "The composition the paper mentions before Algorithm 2 (framework of [8] + the " +
				"§2 broadcast): correct but Θ(n·log n) rounds. Algorithm 2's point is that random " +
				"networks admit O(d·log n), a factor ≈ n/d faster."
			return []*sweep.Table{t, t2, t3}
		},
	}
}
