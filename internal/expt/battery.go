package expt

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sweep"
)

func init() {
	register(Experiment{ID: "X7", Title: "Battery budgets and network lifetime",
		PaperRef: "Thm 2.1 / Thm 4.1 / §4 energy bounds, operationalised", Campaign: x7Campaign()})
}

// x7Scale returns the grid side and lifetime budget for the configured scale.
func x7Scale(cfg Config) (gridSide, B int) {
	gridSide, B = 16, 256
	if cfg.Full {
		gridSide, B = 20, 512
	}
	return gridSide, B
}

var (
	x7Budgets     = []int{1, 2, 4, 8, 16}
	x7Protos      = []string{"algorithm3", "czumaj-rytter", "decay"}
	x7UnitBudgets = []int{1, 2}
)

// x7Battery meters the paper's energy measure against a per-node budget of
// B transmissions: UnitTx charges one unit per transmission and nothing
// else, and a flat radio still listens. B is never 0 here, so the budget
// is never energy's "unlimited".
func x7Battery(B int) *energy.Spec {
	return &energy.Spec{Model: energy.UnitTx(), Budget: float64(B), DeadReceive: true}
}

// x7MakeProto builds one of the X7 protocols for the given grid.
func x7MakeProto(proto string, n, D int) func() radio.Broadcaster {
	switch proto {
	case "algorithm3":
		return func() radio.Broadcaster { return core.NewAlgorithm3(n, D, 2) }
	case "czumaj-rytter":
		return func() radio.Broadcaster { return baseline.NewCzumajRytter(n, D, 2) }
	default:
		return func() radio.Broadcaster { return baseline.NewDecay(2*D/8 + 32) }
	}
}

// x7Grid enumerates the single-campaign budget grid (a/...), the lifetime
// grid (b/...), and the Algorithm-1 unit-battery grid (c/...).
func x7Grid(cfg Config) (single, lifetime, unit []campaign.Point) {
	for _, B := range x7Budgets {
		for _, proto := range x7Protos {
			single = append(single, campaign.Pt(
				fmt.Sprintf("a/B=%d/proto=%s", B, proto), [2]any{B, proto},
				"B", fmt.Sprint(B), "proto", proto))
		}
	}
	for _, proto := range x7Protos {
		lifetime = append(lifetime, campaign.Pt("b/proto="+proto, proto, "proto", proto))
	}
	for _, B := range x7UnitBudgets {
		unit = append(unit, campaign.Pt(fmt.Sprintf("c/B=%d", B), B, "B", fmt.Sprint(B)))
	}
	return single, lifetime, unit
}

func x7Campaign() campaign.Campaign {
	points := func(cfg Config) []campaign.Point {
		a, b, c := x7Grid(cfg)
		return append(append(a, b...), c...)
	}
	return campaign.Campaign{
		Points: points,
		Run: func(cfg Config, pt campaign.Point, seed uint64) campaign.Samples {
			gridSide, B := x7Scale(cfg)
			g := graph.Grid2D(gridSide, gridSide)
			n := g.N()
			D := 2 * (gridSide - 1)
			switch pt.Key[0] {
			case 'a':
				d := pt.Data.([2]any)
				budget, proto := d[0].(int), d[1].(string)
				return runBroadcastTrials(cfg, seed, broadcastTrial{
					makeGraph: func(seed uint64, sc *graph.Scratch) (*graph.Digraph, graph.NodeID) { return g, 0 },
					makeProto: x7MakeProto(proto, n, D),
					opts:      radio.Options{MaxRounds: 300000, Energy: x7Battery(budget)},
				})
			case 'b':
				// Network lifetime — run broadcast campaigns (fresh protocol,
				// same battery bank) until the first one fails to inform
				// everyone. lifetimeTrial would redraw a flat source and stop
				// at a dead network; both consume randomness this loop does
				// not, so reusing it would change X7b's records.
				proto := pt.Data.(string)
				mk := x7MakeProto(proto, n, D)
				maxCampaigns := 400
				return sweep.RunTrials(trials(cfg), seed, cfg.Workers, func(tr sweep.Trial) sweep.Metrics {
					spec := x7Battery(B)
					r := rng.New(rng.SubSeed(tr.Seed, 1))
					campaigns := 0
					perCampaignTx := 0.0
					for campaigns < maxCampaigns {
						src := graph.NodeID(r.Intn(n))
						sess := radio.NewBroadcastSession(n, src, mk(), r.Split(uint64(campaigns)))
						res := sess.Run(g, radio.Options{MaxRounds: 300000, Energy: spec})
						if !res.Completed() {
							break
						}
						campaigns++
						if campaigns == 1 {
							perCampaignTx = res.TxPerNode()
						}
						spec = &energy.Spec{Resume: sess.EnergyState()}
					}
					return sweep.Metrics{"campaigns": float64(campaigns), "tx1": perCampaignTx}
				})
			default:
				// Algorithm 1 with unit batteries on its home turf.
				spec := x7Battery(pt.Data.(int))
				n2 := 1 << 12
				p := sparseP(n2)
				return sweep.RunTrials(trials(cfg), seed, cfg.Workers, func(tr sweep.Trial) sweep.Metrics {
					gg := graph.GNPDirected(n2, p, rng.New(tr.Seed))
					res := radio.RunBroadcast(gg, 0, core.NewAlgorithm1(p), rng.New(rng.SubSeed(tr.Seed, 1)),
						radio.Options{MaxRounds: 10000, Energy: spec})
					m := sweep.Metrics{"success": 0,
						"informedFrac": float64(res.Informed) / float64(n2),
						"maxSpent":     float64(res.MaxNodeTx)}
					if res.Completed() {
						m["success"] = 1
					}
					return m
				})
			}
		},
		Render: func(cfg Config, v campaign.View) []*sweep.Table {
			gridSide, B := x7Scale(cfg)
			single, lifetime, unit := x7Grid(cfg)

			t := sweep.NewTable(
				fmt.Sprintf("X7a: single-broadcast completion under per-node battery budgets (%dx%d grid)", gridSide, gridSide),
				"budget B", "algorithm3 success", "czumaj-rytter success", "decay success")
			for i := 0; i < len(single); i += len(x7Protos) {
				budget := single[i].Data.([2]any)[0].(int)
				row := []string{sweep.FInt(budget)}
				for j := range x7Protos {
					out := v.Samples(single[i+j].Key)
					row = append(row, sweep.F(sweep.RateOf(out, mSuccess)))
				}
				t.AddRow(row...)
			}
			t.Note = "A single broadcast is remarkably robust to hard budgets — collective redundancy " +
				"means a handful of transmissions per node suffices, and dying radios even thin " +
				"collisions. The energy bounds of §4 are about AVERAGE drain, which is why the " +
				"functional consequence is lifetime under REPEATED campaigns (X7b), not single-shot " +
				"completion."

			t2 := sweep.NewTable(
				fmt.Sprintf("X7b: campaigns completed before first failure (B=%d per node, %dx%d grid)", B, gridSide, gridSide),
				"protocol", "campaigns (mean)", "B / (tx per campaign per node) predicted", "lifetime ratio vs CR")
			lifetimes := map[string]float64{}
			predicted := map[string]float64{}
			for _, pt := range lifetime {
				out := v.Samples(pt.Key)
				name := pt.Data.(string)
				lifetimes[name] = sweep.MeanOf(out, "campaigns")
				predicted[name] = float64(B) / sweep.MeanOf(out, "tx1")
			}
			for _, pt := range lifetime {
				name := pt.Data.(string)
				ratio := math.NaN()
				if lifetimes["czumaj-rytter"] > 0 {
					ratio = lifetimes[name] / lifetimes["czumaj-rytter"]
				}
				t2.AddRow(name, sweep.F(lifetimes[name]), sweep.F(predicted[name]), sweep.F(ratio))
			}
			t2.Note = "The paper's energy hierarchy as battery life: every campaign drains ≈ tx/node " +
				"units, so the network survives ≈ B ÷ (tx/node) campaigns. Algorithm 3's " +
				"Θ(log² n/λ) per-campaign drain buys ≈ λ-times more campaigns than Czumaj–Rytter's " +
				"Θ(log² n) — the E7 factor, now measured in broadcasts-before-death."

			t3 := sweep.NewTable("X7c: Algorithm 1 with unit batteries on G(n,p)",
				"budget B", "success", "informed fraction", "max spent")
			for _, pt := range unit {
				out := v.Samples(pt.Key)
				t3.AddRow(sweep.FInt(pt.Data.(int)), sweep.F(sweep.RateOf(out, "success")),
					sweep.F(sweep.MeanOf(out, "informedFrac")),
					sweep.F(sweep.MeanOf(out, "maxSpent")))
			}
			t3.Note = "Algorithm 1 is budget-oblivious at B = 1: its schedule never asks any node to " +
				"transmit twice, so the battery constraint is invisible — the strongest possible " +
				"form of the Theorem 2.1 energy claim."
			return []*sweep.Table{t, t2, t3}
		},
	}
}
