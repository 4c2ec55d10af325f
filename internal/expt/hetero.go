package expt

import (
	"fmt"
	"math"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sweep"
)

func init() {
	register(Experiment{ID: "X8", Title: "Heterogeneous communication ranges in random networks",
		PaperRef: "§1.2 (per-node ranges, asymmetric links)", Campaign: x8Campaign()})
}

// x8Scale returns the heterogeneous-range operating point.
func x8Scale(cfg Config) (n int, pBar float64, diam int) {
	n = 1 << 11
	if cfg.Full {
		n = 1 << 13
	}
	pBar = sparseP(n) // target mean probability; spreads widen around it
	diam = int(math.Ceil(math.Log(float64(n))/math.Log(pBar*float64(n)))) + 1
	return n, pBar, diam
}

var (
	x8Spreads = []float64{1, 4, 16, 64}
	x8Protos  = []string{"algorithm1 (assumes uniform d)", "algorithm3 (level-adaptive)"}
)

func x8Grid(cfg Config) []campaign.Point {
	var pts []campaign.Point
	for _, spread := range x8Spreads {
		for _, proto := range x8Protos {
			pts = append(pts, campaign.Pt(
				fmt.Sprintf("spread=%.0fx/proto=%s", spread, proto), [2]any{spread, proto},
				"spread", fmt.Sprintf("%.0fx", spread), "proto", proto))
		}
	}
	return pts
}

func x8Campaign() campaign.Campaign {
	return campaign.Campaign{
		Points: x8Grid,
		Run: func(cfg Config, pt campaign.Point, seed uint64) campaign.Samples {
			n, pBar, diam := x8Scale(cfg)
			d := pt.Data.([2]any)
			spread := d[0].(float64)
			// [pmin, pmax] with mean pBar and the given ratio.
			pmin := 2 * pBar / (1 + spread)
			pmax := spread * pmin
			makeProto := func() radio.Broadcaster { return core.NewAlgorithm1(pBar) }
			if d[1].(string) == x8Protos[1] {
				makeProto = func() radio.Broadcaster { return core.NewAlgorithm3(n, diam, 2) }
			}
			return runBroadcastTrials(cfg, seed, broadcastTrial{
				makeGraph: func(seed uint64, sc *graph.Scratch) (*graph.Digraph, graph.NodeID) {
					g, _ := sc.GNPHetero(n, pmin, pmax, rng.New(seed))
					return g, 0
				},
				makeProto: makeProto,
				opts:      radio.Options{MaxRounds: 100000},
			})
		},
		Render: func(cfg Config, v campaign.View) []*sweep.Table {
			n, pBar, _ := x8Scale(cfg)
			t := sweep.NewTable(
				fmt.Sprintf("X8: heterogeneous per-node ranges on random networks (n=%d, mean p=%.4g)", n, pBar),
				"spread pmax/pmin", "protocol", "success", "informed fraction", "rounds")
			for _, pt := range x8Grid(cfg) {
				d := pt.Data.([2]any)
				out := v.Samples(pt.Key)
				rounds := math.NaN()
				if sweep.RateOf(out, mSuccess) > 0 {
					rounds = sweep.MeanOf(out, mRounds)
				}
				t.AddRow(fmt.Sprintf("%.0fx", d[0].(float64)), d[1].(string),
					sweep.F(sweep.RateOf(out, mSuccess)),
					sweep.F(sweep.MeanOf(out, mInformedF)),
					sweep.F(rounds))
			}
			t.Note = "§1.2 allows every device its own communication range; here node u reaches others " +
				"with its own p_u ∈ [pmin, pmax] (mean held at the homogeneous operating point). " +
				"Algorithm 1's phase probabilities are tuned to a single d = np̄, so as the spread " +
				"grows its collision/coverage balance drifts; Algorithm 3 samples all neighbourhood " +
				"scales every round and shrugs the heterogeneity off. Asymmetric links also mean no " +
				"acknowledgements — exactly why the paper forbids ACK-based protocols."
			return []*sweep.Table{t}
		},
	}
}
