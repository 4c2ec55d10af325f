// Command gossip runs a gossiping protocol (join model, §3 of the paper) on
// a topology and reports completion time and per-node energy.
//
// Examples:
//
//	gossip -topo gnp:n=512,p=0.06 -proto algorithm2:p=0.06 -trials 10
//	gossip -topo cycle:n=64 -proto tdma
//	gossip -topo gnp:n=256,p=0.1 -proto uniform:q=0.02,rounds=50000
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/sweep"
)

func main() {
	var (
		topoSpec  = flag.String("topo", "gnp:n=256,p=0.1", "topology spec (see internal/cliutil)")
		protoSpec = flag.String("proto", "algorithm2:p=0.1", "gossip protocol spec")
		trials    = flag.Int("trials", 10, "independent trials")
		seed      = flag.Uint64("seed", 1, "base seed")
		workers   = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		duplex    = flag.Bool("fullduplex", false, "allow transmitters to receive in the same round")
		csv       = flag.Bool("csv", false, "emit CSV instead of markdown")
	)
	flag.Parse()
	if err := checkFlags(*trials); err != nil {
		fatal(err)
	}

	topo, err := cliutil.ParseTopology(*topoSpec)
	if err != nil {
		fatal(err)
	}
	factory, budget, err := cliutil.ParseGossiper(*protoSpec, topo.N)
	if err != nil {
		fatal(err)
	}

	newScratch := func() any { return radio.NewScratch() }
	out := sweep.RunTrialsScratch(*trials, *seed, *workers, newScratch, func(tr sweep.Trial) sweep.Metrics {
		g := topo.Build(tr.Seed)
		sc, _ := tr.Scratch.(*radio.Scratch)
		res := radio.RunGossipWith(sc, g, factory(), rng.New(rng.SubSeed(tr.Seed, 1)), radio.GossipOptions{
			MaxRounds: budget, FullDuplex: *duplex, StopWhenComplete: true,
		})
		m := sweep.Metrics{
			"success": 0, "txPerNode": res.TxPerNode(),
			"maxNodeTx": float64(res.MaxNodeTx),
			"knownFrac": float64(res.KnownPairs) / (float64(topo.N) * float64(topo.N)),
		}
		if res.Completed() {
			m["success"] = 1
			m["rounds"] = float64(res.CompleteRound)
		}
		return m
	})

	table := sweep.NewTable(
		fmt.Sprintf("gossip %s on %s (n=%d, budget %d rounds, %d trials)",
			*protoSpec, *topoSpec, topo.N, budget, *trials),
		"success", "rounds (mean±ci95)", "known pairs fraction", "tx/node", "max tx/node")
	roundsCell := "n/a"
	if sweep.RateOf(out, "success") > 0 {
		var xs []float64
		for _, v := range out["rounds"] {
			if v == v {
				xs = append(xs, v)
			}
		}
		mean, hw := stats.MeanCI(xs, 1.96)
		roundsCell = fmt.Sprintf("%.1f±%.1f", mean, hw)
	}
	table.AddRow(
		sweep.F(sweep.RateOf(out, "success")),
		roundsCell,
		sweep.F(sweep.MeanOf(out, "knownFrac")),
		sweep.F(sweep.MeanOf(out, "txPerNode")),
		sweep.F(sweep.MeanOf(out, "maxNodeTx")))

	if *csv {
		fmt.Print(table.CSV())
	} else {
		fmt.Print(table.Markdown())
	}
}

// checkFlags rejects flag values the trials cannot run with, before any
// trial starts.
func checkFlags(trials int) error {
	if trials < 1 {
		return fmt.Errorf("-trials %d: need at least one trial", trials)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gossip:", err)
	os.Exit(1)
}
