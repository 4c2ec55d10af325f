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
	register(Experiment{ID: "X5", Title: "Channel adversity: fading loss and jamming",
		PaperRef: "model extension (§1.2 collisions; one-shot vs retrying protocols)", Campaign: x5Campaign()})
	register(Experiment{ID: "X6", Title: "Mobile broadcast: topology re-sampled mid-run",
		PaperRef: "§1 mobility motivation", Campaign: x6Campaign()})
}

// x5Scale returns the G(n,p) operating point of the adversity battery.
func x5Scale(cfg Config) (n int, p float64, diam int) {
	n = 1 << 11
	if cfg.Full {
		n = 1 << 13
	}
	p = sparseP(n)
	diam = int(math.Ceil(math.Log(float64(n)) / math.Log(p*float64(n))))
	return n, p, diam
}

var (
	x5Losses   = []float64{0, 0.1, 0.3, 0.5}
	x5Protos   = []string{"algorithm1 (1 shot/node)", "algorithm3 (window of retries)"}
	x5JamRates = []float64{0, 0.05, 0.2, 0.4}
)

// x5Grid enumerates the fading (a/...) and jamming (b/...) points.
func x5Grid(cfg Config) (fading, jamming []campaign.Point) {
	for _, loss := range x5Losses {
		for _, proto := range x5Protos {
			fading = append(fading, campaign.Pt(
				fmt.Sprintf("a/loss=%s/proto=%s", sweep.F(loss), proto),
				[2]any{loss, proto}, "loss", sweep.F(loss), "proto", proto))
		}
	}
	for _, rate := range x5JamRates {
		jamming = append(jamming, campaign.Pt(
			fmt.Sprintf("b/jam=%s", sweep.F(rate)), rate, "jam", sweep.F(rate)))
	}
	return fading, jamming
}

func x5Campaign() campaign.Campaign {
	points := func(cfg Config) []campaign.Point {
		a, b := x5Grid(cfg)
		return append(a, b...)
	}
	return campaign.Campaign{
		Points: points,
		Run: func(cfg Config, pt campaign.Point, seed uint64) campaign.Samples {
			n, p, diam := x5Scale(cfg)
			if pt.Key[0] == 'a' {
				d := pt.Data.([2]any)
				loss := d[0].(float64)
				makeProto := func() radio.Broadcaster { return core.NewAlgorithm1(p) }
				if d[1].(string) == x5Protos[1] {
					makeProto = func() radio.Broadcaster { return core.NewAlgorithm3(n, diam, 2) }
				}
				return runBroadcastTrials(cfg, seed, broadcastTrial{
					makeGraph: func(seed uint64, sc *graph.Scratch) (*graph.Digraph, graph.NodeID) {
						return sc.GNPDirected(n, p, rng.New(seed)), 0
					},
					makeProto: makeProto,
					opts:      radio.Options{MaxRounds: 100000, Reception: radio.LossyChannel(loss)},
				})
			}
			rate := pt.Data.(float64)
			return runBroadcastTrials(cfg, seed, broadcastTrial{
				makeGraph: func(seed uint64, sc *graph.Scratch) (*graph.Digraph, graph.NodeID) {
					return sc.GNPDirected(n, p, rng.New(seed)), 0
				},
				makeProto: func() radio.Broadcaster { return core.NewAlgorithm3(n, diam, 2) },
				// Jam each node independently with the given rate per round; the
				// schedule draws from a per-trial stream so protocol randomness
				// is untouched and trials stay deterministic.
				makeOpts: func(seed uint64) radio.Options {
					jr := rng.New(rng.SubSeed(seed, 7))
					return radio.Options{
						MaxRounds: 100000,
						Jammed: func(round int) []graph.NodeID {
							var out []graph.NodeID
							k := jr.Binomial(n, rate)
							for _, idx := range jr.SampleWithoutReplacement(n, k) {
								out = append(out, graph.NodeID(idx))
							}
							return out
						},
					}
				},
			})
		},
		Render: func(cfg Config, v campaign.View) []*sweep.Table {
			n, _, _ := x5Scale(cfg)
			fading, jamming := x5Grid(cfg)
			t := sweep.NewTable(
				fmt.Sprintf("X5a: per-edge fading on G(n=%d,p) — one-shot vs retrying protocols", n),
				"loss prob", "protocol", "success", "informed fraction", "tx/node")
			for _, pt := range fading {
				d := pt.Data.([2]any)
				out := v.Samples(pt.Key)
				t.AddRow(sweep.F(d[0].(float64)), d[1].(string),
					sweep.F(sweep.RateOf(out, mSuccess)),
					sweep.F(sweep.MeanOf(out, mInformedF)),
					sweep.F(sweep.MeanOf(out, mTxPerNode)))
			}
			t.Note = "Fading drops each (sender, receiver) delivery independently. Algorithm 1's " +
				"energy optimality comes from single-shot transmissions, which makes it brittle " +
				"under loss (its w.h.p. analysis assumes a perfect channel); Algorithm 3 retries " +
				"throughout its Θ(log² n) window and degrades gracefully. Fading can even help " +
				"against collisions (it thins simultaneous transmitters), but the lost capacity " +
				"dominates for the one-shot protocol."

			t2 := sweep.NewTable(
				fmt.Sprintf("X5b: random receiver jamming on G(n=%d,p) — Algorithm 3", n),
				"jam rate", "success", "informed fraction", "rounds", "tx/node")
			for _, pt := range jamming {
				rate := pt.Data.(float64)
				out := v.Samples(pt.Key)
				rounds := math.NaN()
				if sweep.RateOf(out, mSuccess) > 0 {
					rounds = sweep.MeanOf(out, mRounds)
				}
				t2.AddRow(sweep.F(rate), sweep.F(sweep.RateOf(out, mSuccess)),
					sweep.F(sweep.MeanOf(out, mInformedF)), sweep.F(rounds),
					sweep.F(sweep.MeanOf(out, mTxPerNode)))
			}
			t2.Note = "A jammed receiver hears only noise that round. Random jamming at rate ρ scales " +
				"every per-round informing probability by (1-ρ), so completion time stretches by " +
				"≈ 1/(1-ρ) while success stays high — the protocol's randomised retries absorb " +
				"interference without any coordination."
			return []*sweep.Table{t, t2}
		},
	}
}

// x6Scenario is one mobility scenario of X6.
type x6Scenario struct {
	name    string
	dynamic bool
	radius  float64 // multiple of r_c, resolved in Run/Render
}

// x6Scale returns the X6 parameters for the configured scale.
func x6Scale(cfg Config) (n int, rc float64) {
	n = 400
	if cfg.Full {
		n = 900
	}
	return n, math.Sqrt(math.Log(float64(n)) / (math.Pi * float64(n)))
}

func x6Scenarios(rc float64) []x6Scenario {
	sub := 0.7 * rc // below the connectivity threshold: isolated pockets
	super := 2 * rc // comfortably connected
	return []x6Scenario{
		{"static, subcritical radius 0.7·r_c", false, sub},
		{"mobile, subcritical radius 0.7·r_c", true, sub},
		{"static, radius 2·r_c (reference)", false, super},
	}
}

func x6Campaign() campaign.Campaign {
	points := func(cfg Config) []campaign.Point {
		_, rc := x6Scale(cfg)
		var pts []campaign.Point
		for _, sc := range x6Scenarios(rc) {
			pts = append(pts, campaign.Pt("scenario="+sc.name, sc, "scenario", sc.name))
		}
		return pts
	}
	return campaign.Campaign{
		Points: points,
		Run: func(cfg Config, pt campaign.Point, seed uint64) campaign.Samples {
			n, rc := x6Scale(cfg)
			sub := 0.7 * rc
			epochs := 24
			epochLen := 40
			dGuess := int(2 / sub) // generous diameter bound for the protocol
			sc := pt.Data.(x6Scenario)
			return sweep.RunTrials(trials(cfg), seed, cfg.Workers, func(tr sweep.Trial) sweep.Metrics {
				protoRNG := rng.New(rng.SubSeed(tr.Seed, 1))
				proto := core.NewAlgorithm3(n, dGuess, 8) // wide window: survives epochs
				sess := radio.NewBroadcastSession(n, 0, proto, protoRNG)
				var res *radio.Result
				for e := 0; e < epochs; e++ {
					gseed := tr.Seed
					if sc.dynamic {
						gseed = rng.SubSeed(tr.Seed, uint64(100+e)) // nodes moved
					}
					g, _ := graph.RandomGeometric(n, sc.radius, sc.radius, rng.New(gseed))
					res = sess.Run(g, radio.Options{MaxRounds: epochLen, StopWhenInformed: true})
					if res.Completed() {
						break
					}
				}
				m := sweep.Metrics{
					"success":      0,
					"informedFrac": float64(res.Informed) / float64(n),
					"rounds":       math.NaN(),
				}
				if res.Completed() {
					m["success"] = 1
					m["rounds"] = float64(res.InformedRound)
				}
				return m
			})
		},
		Render: func(cfg Config, v campaign.View) []*sweep.Table {
			n, _ := x6Scale(cfg)
			epochs, epochLen := 24, 40
			t := sweep.NewTable(
				fmt.Sprintf("X6: broadcast on a mobile geometric network (n=%d, %d epochs × %d rounds)", n, epochs, epochLen),
				"scenario", "success", "informed fraction", "rounds to complete")
			for _, pt := range points(cfg) {
				sc := pt.Data.(x6Scenario)
				out := v.Samples(pt.Key)
				rounds := math.NaN()
				if sweep.RateOf(out, "success") > 0 {
					rounds = sweep.MeanOf(out, "rounds")
				}
				t.AddRow(sc.name, sweep.F(sweep.RateOf(out, "success")),
					sweep.F(sweep.MeanOf(out, "informedFrac")), sweep.F(rounds))
			}
			t.Note = "The §1 mobility story, quantified: below the connectivity radius a STATIC " +
				"geometric network strands the broadcast in the source's pocket, but when nodes " +
				"move (fresh positions each epoch, knowledge carried by radio.BroadcastSession) " +
				"the union of topologies connects and the oblivious protocol completes — mobility " +
				"substitutes for density. The protocol never learns the topology; it just keeps " +
				"following its schedule."
			return []*sweep.Table{t}
		},
	}
}
