// Command e2e is the repository's end-to-end benchmark. It runs one
// workload per process and prints every metric by name with its unit; the
// last line of its output is one JSON object with the keys correct,
// attempted, failed and metrics. Run it through bench/run.sh from the
// repository root:
//
//	sh bench/run.sh --workload alg1-gnp --seed 1 --seconds 10 --trace 0
//	sh bench/run.sh --workload alg1-gnp --trace 1 --spans .bench_build/spans.json
//	sh bench/run.sh --compare bench/baseline/set-a.jsonl bench/baseline/set-b.jsonl
//
// Every workload is a closed loop over a fixed list of ops derived from
// --seed. The measured phase starts after set-up and runs whole units (a
// trial, a campaign pass) until --seconds have passed and at least 100 ops
// are done; campaign-reduced runs at least four passes, and service-drain
// instead drains a job count set from --seconds.
// With --trace 0 the run reports the end-to-end metrics, its op times scaled
// to a reference host speed (see ref.go). With --trace 1 it runs the same
// untraced phase, then replays the same units with the benchmark's wrappers
// installed around every layer boundary, checks that the traced outputs are
// bit-identical to the untraced ones, and reports the per-layer metrics. Any
// failed correctness check makes the run exit 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workload is one benchmark workload.
type workload interface {
	// setup builds the inputs and starts what the measured phase needs.
	// The runner times it, repeats it setupReps times, and keeps the last.
	setup() error
	setupReps() int
	// teardown releases what setup built; it is safe to call twice.
	teardown()
	// phase runs units while more reports true and runs host's reference
	// kernel while the program under test is idle: between ops, so that it
	// sees the host load the ops see, or, where the ops never pause, before
	// and after them. With a tracer it also records spans around every layer
	// boundary and fills the result's per-layer values.
	phase(tr *tracer, host *hostProbe, more moreFunc) (*phaseResult, error)
}

// moreFunc reports whether the phase should start another unit, given the
// units started, the ops completed and the time elapsed so far.
type moreFunc func(units, ops int, elapsed time.Duration) bool

// phaseResult is what one measured phase did.
type phaseResult struct {
	units     int
	opMs      []float64   // latency of every completed op
	opAt      []time.Time // when each op started
	elapsed   time.Duration
	attempted int // ops attempted
	failed    int // ops that failed a correctness check
	failures  []string
	digest    string // fingerprint of every output, compared traced vs untraced
	root      int    // the phase's root span
	layer     values // per-layer values of a traced phase
}

func (p *phaseResult) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 10 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its constructor at benchmark size,
// given the seed, a scratch directory and the phase length in seconds.
var workloads = map[string]func(seed uint64, dir string, seconds float64) workload{
	"campaign-reduced": func(seed uint64, dir string, _ float64) workload { return newCampaignReduced(seed, dir, nil) },
	"alg1-gnp":         func(seed uint64, _ string, _ float64) workload { return newAlg1GNP(seed, 1<<18) },
	"alg3-rgg-energy":  func(seed uint64, _ string, _ float64) workload { return newAlg3RGGEnergy(seed, 1<<15, 20) },
	"service-drain": func(seed uint64, dir string, seconds float64) workload {
		return newServiceDrain(seed, dir, serviceExperiments, serviceJobs(seconds))
	},
}

func workloadNames() []string { return slices.Sorted(maps.Keys(workloads)) }

// minOps keeps p90 backed by at least ten samples beyond it.
const minOps = 100

type runOpts struct {
	seconds time.Duration
	minOps  int
	trace   bool
	spans   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Uint64("seed", 2009, "workload seed; the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 10, "minimum length of the measured phase, in seconds")
		trace   = fs.Int("trace", 0, "0: report end-to-end metrics; 1: replay the ops traced and report per-layer metrics")
		spans   = fs.String("spans", "", "with -trace 1, write the recorded spans to this JSON file")
		compare = fs.Bool("compare", false, "compare two result sets under the bounds in BENCHMARK.json: -compare A.jsonl B.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "e2e: unknown -workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "e2e: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	dir, err := os.MkdirTemp("", "e2e-")
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	res, err := measure(mk(*seed, dir, *seconds), runOpts{
		seconds: time.Duration(*seconds * float64(time.Second)),
		minOps:  minOps,
		trace:   *trace == 1,
		spans:   *spans,
	}, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs set-up, the untraced phase and, when tracing, the traced
// replay, and assembles the result.
func measure(w workload, o runOpts, stdout, stderr io.Writer) (result, error) {
	var setups []float64
	for r := 0; r < w.setupReps(); r++ {
		if r > 0 {
			w.teardown()
		}
		// Hand the garbage back to the OS before every set-up, so each one
		// starts from the same heap, and after the last, so the phase's
		// resident set is its own: left to the scavenger, the four discarded
		// alg1-gnp graphs were returned in some runs and not in others, and
		// the phase's median resident set read 473 or 522 MiB.
		debug.FreeOSMemory()
		t := time.Now()
		if err := w.setup(); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer w.teardown()
	debug.FreeOSMemory()
	fmt.Fprintf(stdout, "set-up %d times: median %.4g s, least %.4g s, most %.4g s\n",
		len(setups), median(setups), slices.Min(setups), slices.Max(setups))

	var host hostProbe
	base, err := w.phase(nil, &host, func(_, ops int, elapsed time.Duration) bool {
		return elapsed < o.seconds || ops < o.minOps
	})
	if err != nil {
		return result{}, err
	}
	if len(host.samples) == 0 || len(host.rssMiB) == 0 {
		return result{}, fmt.Errorf("the phase took %d reference kernel and %d resident set samples", len(host.samples), len(host.rssMiB))
	}
	rate := float64(len(base.opMs)) / base.elapsed.Seconds()
	fmt.Fprintf(stdout, "ops %d in %d units over %.3fs (%.4g ops/s)", len(base.opMs), base.units, base.elapsed.Seconds(), rate)
	if q := tailQuantile(len(base.opMs)); q > 0 {
		fmt.Fprintf(stdout, "; op latency p50 %.4g ms, p%g %.4g ms (highest percentile with >=10 samples beyond it)",
			percentile(base.opMs, 0.5), q*100, percentile(base.opMs, q))
	}
	scaledOps, meanScale := host.scaleOps(base.opMs, base.opAt)
	fmt.Fprintf(stdout, "\nreference kernel median %.4g ms over %d runs (nominal %g ms); mean op scale %.4g\n",
		host.refMedianMs(), len(host.samples), refNominalMs, meanScale)
	fmt.Fprintf(stdout, "outputs digest %s\n", base.digest)

	// The run-level values a traced run reports beside its layers.
	runLayer := values{
		"host.ref_ms":    host.refMedianMs(),
		"wall.ops_per_s": rate,
		"wall.op_ms_p50": percentile(base.opMs, 0.5),
		"wall.op_ms_p90": percentile(base.opMs, 0.9),
		"peak_rss_mib":   peakRSSMiB(),
	}
	r := result{Attempted: base.attempted, Failed: base.failed}
	failures := base.failures
	var vs values
	if !o.trace {
		vs = values{
			"ops_per_s":   rate / meanScale,
			"op_ms_p50":   smoothedPercentile(scaledOps, 0.5),
			"op_ms_p90":   smoothedPercentile(scaledOps, 0.9),
			"setup_s":     median(setups),
			"rss_mib_p50": median(host.rssMiB),
		}
	} else {
		w.teardown()
		runtime.GC()
		if err := w.setup(); err != nil {
			return result{}, fmt.Errorf("set-up before the traced phase: %w", err)
		}
		tr := newTracer()
		traced, err := w.phase(tr, &hostProbe{}, func(units, _ int, _ time.Duration) bool { return units < base.units })
		if err != nil {
			return result{}, err
		}
		r.Attempted += traced.attempted
		r.Failed += traced.failed
		failures = append(failures, traced.failures...)
		if traced.digest != base.digest {
			r.Failed++
			failures = append(failures, fmt.Sprintf("traced outputs differ from untraced (digest %s vs %s)", traced.digest, base.digest))
		}
		vs = traced.layer
		maps.Copy(vs, runLayer)
		tracedRate := float64(len(traced.opMs)) / traced.elapsed.Seconds()
		vs["trace.overhead_frac"] = ratio(rate, tracedRate) - 1
		vs["trace.unattributed_frac"] = newSpanTable(tr.snapshot()).unattributed(traced.root)
		if o.spans != "" {
			if err := tr.writeJSON(o.spans); err != nil {
				return result{}, err
			}
		}
	}
	for _, f := range failures {
		fmt.Fprintln(stderr, "e2e: check failed:", f)
	}
	r.Correct = r.Failed == 0
	m, err := pick(vs, !o.trace)
	if err != nil {
		return result{}, err
	}
	r.Metrics = m
	return r, nil
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rssMiB is the process's resident set size now, from /proc/self/statm.
func rssMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(data), &size, &resident); err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20), nil
}
