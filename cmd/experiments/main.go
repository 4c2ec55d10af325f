// Command experiments regenerates the paper-reproduction tables: one
// experiment per theorem and figure (the experiment ↔ paper index lives in
// README.md, "Experiment index").
//
// Experiments are declarative grids on the internal/campaign engine, so
// runs stream one JSONL record per completed grid point, can be killed and
// resumed, and can be partitioned across machines:
//
//	experiments -list
//	experiments -run E1,E7
//	experiments -all -full -out EXPERIMENTS.md
//	experiments -all -format csv -out results.csv
//	experiments -all -checkpoint run.jsonl            # stream records
//	experiments -all -checkpoint run.jsonl -resume    # continue a killed run
//	experiments -all -shard 2/8 -format jsonl -checkpoint shard2.jsonl
//
// Sharded runs emit records only (a shard cannot render a table whose other
// points ran elsewhere); concatenate the shard checkpoints and re-run with
// -resume to render every format without recomputing:
//
//	cat shard*.jsonl > all.jsonl
//	experiments -all -checkpoint all.jsonl -resume -out EXPERIMENTS.md
//
// Without -full a reduced grid runs (minutes); -full uses the paper-scale
// grid used to produce the committed EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/expt"
	"repro/internal/radio"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// notifySignals and exitNow are the process-level hooks of the graceful
// shutdown path, as variables so tests can drive "SIGINT mid-campaign"
// in-process instead of killing their own test binary.
var (
	notifySignals = func(ch chan<- os.Signal) { signal.Notify(ch, os.Interrupt, syscall.SIGTERM) }
	exitNow       = os.Exit
)

// exitInterrupted is the distinct status for a run stopped by SIGINT or
// SIGTERM after finishing its in-flight grid point and flushing the
// checkpoint (130 = killed outright by a second signal).
const exitInterrupted = 3

// watchSignals closes the returned channel on the first SIGINT/SIGTERM —
// the campaign engine then stops between grid points, so the checkpoint
// stays a clean prefix of the run — and hard-exits on the second. The
// watcher dies with the surrounding run (close done).
func watchSignals(stderr io.Writer, done <-chan struct{}) <-chan struct{} {
	interrupt := make(chan struct{})
	sig := make(chan os.Signal, 2)
	notifySignals(sig)
	first := func(s os.Signal) {
		fmt.Fprintf(stderr, "experiments: %v — finishing the in-flight grid point and flushing the checkpoint (signal again to abort immediately)\n", s)
		close(interrupt)
	}
	second := func() {
		select {
		case s := <-sig:
			fmt.Fprintf(stderr, "experiments: %v again — aborting without flushing\n", s)
			exitNow(130)
		case <-done:
		}
	}
	select {
	case s := <-sig:
		// The signal was already pending when the watcher installed. Honour
		// it synchronously so the run deterministically stops before its
		// first grid point — a goroutine-only watcher may not be scheduled
		// before a short campaign finishes on a loaded single-core machine.
		first(s)
		go second()
	default:
		go func() {
			select {
			case s := <-sig:
				first(s)
			case <-done:
				return
			}
			second()
		}()
	}
	return interrupt
}

// parseShard parses "k/N" into (k, N). An empty spec means unsharded.
func parseShard(spec string) (k, n int, err error) {
	if spec == "" {
		return 0, 1, nil
	}
	ks, ns, found := strings.Cut(spec, "/")
	if !found {
		return 0, 0, fmt.Errorf("malformed -shard %q (want k/N, e.g. 0/4)", spec)
	}
	k, errK := strconv.Atoi(ks)
	n, errN := strconv.Atoi(ns)
	if errK != nil || errN != nil {
		return 0, 0, fmt.Errorf("malformed -shard %q (want k/N, e.g. 0/4)", spec)
	}
	if n < 1 || k < 0 || k >= n {
		return 0, 0, fmt.Errorf("-shard %q out of range (want 0 <= k < N)", spec)
	}
	return k, n, nil
}

// run carries the whole command so deferred profile writers always flush
// before the process exits (os.Exit would skip them). It owns its flag set,
// so tests drive the full CLI in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list       = fs.Bool("list", false, "list registered experiments")
		runIDs     = fs.String("run", "", "comma-separated experiment ids to run")
		all        = fs.Bool("all", false, "run every experiment")
		full       = fs.Bool("full", false, "paper-scale grids (slower)")
		implicit   = fs.Bool("implicit", false, "restrict graph-representation axes to implicit (generate-free) points")
		channel    = fs.String("channel", "", "restrict channel-model axes to one leg: binary, fade, or duty")
		seed       = fs.Uint64("seed", 2009, "base seed (default: year of the TCS version)")
		workers    = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		out        = fs.String("out", "", "write output to this file instead of stdout")
		format     = fs.String("format", "md", "output format: md, csv, or jsonl")
		checkpoint = fs.String("checkpoint", "", "stream one JSONL record per completed grid point to this file")
		resume     = fs.Bool("resume", false, "skip points already recorded in -checkpoint (same seed and scale)")
		shard      = fs.String("shard", "", "run only shard k of N grid points, as k/N (requires -format jsonl)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		traceFile  = fs.String("trace", "", "write a runtime/trace execution trace to this file")
		pprofAddr  = fs.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		calibrate  = fs.Bool("calibrate", false, "print the machine description (core counts, per-edge kernel costs) as JSON and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *calibrate {
		c := radio.Calibrate()
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(c); err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		return 0
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(stderr, "experiments: pprof server:", err)
			}
		}()
		fmt.Fprintf(stderr, "pprof server on http://%s/debug/pprof/\n", *pprofAddr)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		if err := trace.Start(f); err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		defer func() {
			trace.Stop()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "experiments:", err)
			}
		}()
	}

	if *list {
		fmt.Fprintln(stdout, "ID    paper ref                      title")
		for _, e := range expt.All() {
			fmt.Fprintf(stdout, "%-5s %-30s %s\n", e.ID, e.PaperRef, e.Title)
		}
		return 0
	}

	var selected []expt.Experiment
	switch {
	case *all:
		selected = expt.All()
	case *runIDs != "":
		for _, id := range strings.Split(*runIDs, ",") {
			id = strings.TrimSpace(id)
			e, ok := expt.ByID(id)
			if !ok {
				fmt.Fprintf(stderr, "experiments: unknown id %q (use -list)\n", id)
				return 1
			}
			selected = append(selected, e)
		}
	default:
		fmt.Fprintln(stderr, "experiments: pass -list, -run ids, or -all")
		return 1
	}

	shardIdx, shardN, err := parseShard(*shard)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	switch *format {
	case "md", "csv", "jsonl":
	default:
		fmt.Fprintf(stderr, "experiments: unknown -format %q (want md, csv, or jsonl)\n", *format)
		return 1
	}
	if shardN > 1 && *format != "jsonl" {
		fmt.Fprintln(stderr, "experiments: a shard holds only its own grid points, so tables cannot be "+
			"rendered; use -format jsonl (then concatenate shard checkpoints and re-run with -resume to render)")
		return 1
	}
	if *resume && *checkpoint == "" {
		fmt.Fprintln(stderr, "experiments: -resume requires -checkpoint")
		return 1
	}
	if shardN > 1 && *checkpoint == "" {
		fmt.Fprintln(stderr, "experiments: -shard requires -checkpoint (the shard's record stream is its output)")
		return 1
	}

	cfg := expt.Config{Full: *full, Seed: *seed, Workers: *workers}
	if *implicit {
		cfg.GraphMode = "implicit"
	}
	cfg.Channel = *channel
	watchDone := make(chan struct{})
	defer close(watchDone)
	start := time.Now()
	rs, err := campaign.Run(expt.Units(selected), campaign.RunOptions{
		Config:     cfg,
		ShardIndex: shardIdx,
		ShardCount: shardN,
		Checkpoint: *checkpoint,
		Resume:     *resume,
		Trials:     expt.Trials(cfg),
		Progress:   stderr,
		Interrupt:  watchSignals(stderr, watchDone),
	})
	if errors.Is(err, campaign.ErrInterrupted) {
		fmt.Fprintln(stderr, "experiments:", err)
		if *checkpoint != "" {
			fmt.Fprintf(stderr, "experiments: checkpoint %s holds every completed point; rerun with -resume to continue\n", *checkpoint)
		}
		return exitInterrupted
	}
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	fmt.Fprintf(stderr, "campaign finished in %v\n", time.Since(start).Round(time.Millisecond))

	// Rendering tables needs the whole grid; with -resume over a merged (or
	// still-partial) checkpoint some campaigns may be incomplete.
	if *format != "jsonl" {
		for _, e := range selected {
			if !campaign.Complete(campaign.Unit{ID: e.ID, C: e.Campaign}, cfg, rs) {
				fmt.Fprintf(stderr, "experiments: %s is missing grid points (partial checkpoint?); "+
					"run the remaining shards and merge, or use -format jsonl\n", e.ID)
				return 1
			}
		}
	}

	var b strings.Builder
	switch *format {
	case "jsonl":
		if err := rs.WriteJSONL(&b); err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
	case "csv":
		for _, e := range selected {
			fmt.Fprintf(&b, "# %s — %s (%s)\n", e.ID, e.Title, e.PaperRef)
			for _, t := range e.Campaign.Render(cfg, campaign.NewView(rs, e.ID)) {
				fmt.Fprintf(&b, "# table: %s\n", t.Title)
				b.WriteString(t.CSV())
				b.WriteString("\n")
			}
		}
	default:
		scale := "reduced"
		if *full {
			scale = "full"
		}
		fmt.Fprintf(&b, "# Experiment results (%s scale, seed %d)\n\n", scale, *seed)
		fmt.Fprintf(&b, "Generated by `cmd/experiments`; the experiment ↔ paper mapping is the "+
			"\"Experiment index\" section of README.md.\n\n")
		for _, e := range selected {
			fmt.Fprintf(&b, "## %s — %s\n\nPaper reference: %s.\n\n", e.ID, e.Title, e.PaperRef)
			for _, t := range e.Campaign.Render(cfg, campaign.NewView(rs, e.ID)) {
				b.WriteString(t.Markdown())
				b.WriteString("\n")
			}
		}
	}

	var w io.Writer = stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	if *out != "" {
		fmt.Fprintf(stderr, "wrote %s\n", *out)
	}
	return 0
}
