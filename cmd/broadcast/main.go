// Command broadcast runs a broadcasting protocol on a topology and reports
// time (rounds) and energy (transmissions) over repeated trials.
//
// Examples:
//
//	broadcast -topo gnp:n=4096,p=0.017 -proto algorithm1:p=0.017 -trials 20
//	broadcast -topo grid:w=24,h=24 -proto algorithm3:beta=2 -proto2 cr:beta=2
//	broadcast -topo fig2:n=128,d=96 -proto algorithm3 -history
//
// Spec syntax is documented in internal/cliutil. With -proto2 set the two
// protocols run on identical topologies and seeds, giving a paired
// comparison (the §4 Algorithm 3 vs Czumaj–Rytter experiment in one line).
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
	"repro/internal/trace"
)

func main() {
	var (
		topoSpec  = flag.String("topo", "gnp:n=1024,p=0.054", "topology spec (see internal/cliutil)")
		protoSpec = flag.String("proto", "algorithm1:p=0.054", "protocol spec")
		proto2    = flag.String("proto2", "", "optional second protocol for a paired comparison")
		trials    = flag.Int("trials", 10, "independent trials")
		seed      = flag.Uint64("seed", 1, "base seed")
		maxRounds = flag.Int("maxrounds", 200000, "round cap per run")
		workers   = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		history   = flag.Bool("history", false, "print the per-round history of trial 0")
		traceFile = flag.String("trace", "", "write a JSONL event trace of trial 0 to this file")
		loss      = flag.Float64("loss", 0, "per-edge fading probability in [0,1)")
		csv       = flag.Bool("csv", false, "emit CSV instead of markdown")
	)
	flag.Parse()
	if err := checkFlags(*trials, *maxRounds, *loss); err != nil {
		fatal(err)
	}
	channel := radio.LossyChannel(*loss)

	topo, err := cliutil.ParseTopology(*topoSpec)
	if err != nil {
		fatal(err)
	}
	specs := []string{*protoSpec}
	if *proto2 != "" {
		specs = append(specs, *proto2)
	}

	table := sweep.NewTable(
		fmt.Sprintf("broadcast on %s (n=%d, D≈%d, %d trials)", *topoSpec, topo.N, topo.D, *trials),
		"protocol", "success", "rounds (mean±ci95)", "total tx (mean)", "tx/node", "max tx/node")

	for _, spec := range specs {
		factory, err := cliutil.ParseBroadcaster(spec, topo.N, topo.D)
		if err != nil {
			fatal(err)
		}
		name := factory().Name()
		out := sweep.RunTrials(*trials, *seed, *workers, func(tr sweep.Trial) sweep.Metrics {
			g := topo.Build(tr.Seed)
			res := radio.RunBroadcast(g, topo.Source, factory(), rng.New(rng.SubSeed(tr.Seed, 1)),
				radio.Options{MaxRounds: *maxRounds, Reception: channel})
			m := sweep.Metrics{
				"success": 0, "totalTx": float64(res.TotalTx),
				"txPerNode": res.TxPerNode(), "maxNodeTx": float64(res.MaxNodeTx),
			}
			if res.Completed() {
				m["success"] = 1
				m["rounds"] = float64(res.InformedRound)
			}
			return m
		})
		roundsCell := "n/a"
		if sweep.RateOf(out, "success") > 0 {
			var xs []float64
			for _, v := range out["rounds"] {
				if v == v { // skip NaN
					xs = append(xs, v)
				}
			}
			mean, hw := stats.MeanCI(xs, 1.96)
			roundsCell = fmt.Sprintf("%.1f±%.1f", mean, hw)
		}
		table.AddRow(name,
			sweep.F(sweep.RateOf(out, "success")),
			roundsCell,
			sweep.F(sweep.MeanOf(out, "totalTx")),
			sweep.F(sweep.MeanOf(out, "txPerNode")),
			sweep.F(sweep.MeanOf(out, "maxNodeTx")))
	}

	if *csv {
		fmt.Print(table.CSV())
	} else {
		fmt.Print(table.Markdown())
	}

	if *history || *traceFile != "" {
		factory, err := cliutil.ParseBroadcaster(specs[0], topo.N, topo.D)
		if err != nil {
			fatal(err)
		}
		opts := radio.Options{MaxRounds: *maxRounds, RecordHistory: true, Reception: channel}
		var traceOut *os.File
		if *traceFile != "" {
			traceOut, err = os.Create(*traceFile)
			if err != nil {
				fatal(err)
			}
			defer traceOut.Close()
			jt := trace.NewJSONL(traceOut)
			opts.Tracer = jt
			defer func() {
				if jt.Err() != nil {
					fmt.Fprintln(os.Stderr, "broadcast: trace:", jt.Err())
				}
			}()
		}
		g := topo.Build(rng.SubSeed(*seed, 0))
		res := radio.RunBroadcast(g, topo.Source, factory(), rng.New(rng.SubSeed(rng.SubSeed(*seed, 0), 1)), opts)
		if *history {
			ht := sweep.NewTable("per-round history (trial 0)",
				"round", "transmitters", "newly informed", "informed", "collisions")
			for _, h := range res.History {
				ht.AddRow(sweep.FInt(h.Round), sweep.FInt(h.Transmitters),
					sweep.FInt(h.NewlyInformed), sweep.FInt(h.Informed), sweep.FInt(h.Collisions))
			}
			fmt.Println()
			fmt.Print(ht.Markdown())
		}
		if *traceFile != "" {
			fmt.Fprintf(os.Stderr, "wrote trace of trial 0 to %s\n", *traceFile)
		}
	}
}

// checkFlags rejects flag values the trials cannot run with, before any
// trial starts.
func checkFlags(trials, maxRounds int, loss float64) error {
	switch {
	case trials < 1:
		return fmt.Errorf("-trials %d: need at least one trial", trials)
	case maxRounds < 1:
		return fmt.Errorf("-maxrounds %d: need at least one round", maxRounds)
	case !(loss >= 0 && loss < 1): // NaN fails both comparisons
		return fmt.Errorf("-loss %v outside [0,1)", loss)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "broadcast:", err)
	os.Exit(1)
}
