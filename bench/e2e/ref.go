package main

import (
	"sort"
	"time"
)

// The benchmark runs on shared virtual machines whose speed swings by up to
// 2.3x within seconds as neighbours load the host's shared cache and memory:
// on a 2-vCPU Xeon VM, one fixed Algorithm 3 trial repeated for five minutes
// took between 99 and 230 ms. So the op times are reported at a fixed
// reference speed. The phase runs a reference kernel between its ops, about
// every refEvery, and each op's time is multiplied by refNominalMs over the
// median of the three kernel times measured nearest its start. The kernel
// lives here, in the benchmark's own code, so a change to the program cannot
// speed it up or slow it down. Over those five minutes the scaling cut the
// spread of 4-second means of the trial time from 25% to 11% (Algorithm 3)
// and from 16% to 4% (Algorithm 1). Wall-clock values are reported beside
// the scaled ones (wall.*), with the kernel's median (host.ref_ms).
//
// The kernel must not run beside the program under test; otherwise the
// program's own CPU load moves the scale. The serial workloads run it between
// ops. service-drain runs it while its workers wait at a gate (service.go).

// refNominalMs is the kernel's time between ops on a quiet host of the kind
// the baselines under bench/baseline were measured on, so scaled times read
// as wall times on such a host.
const refNominalMs = 4.5

// refEvery is the least time between two kernel runs of a phase.
const refEvery = 100 * time.Millisecond

// refBuf is the kernel's working set. At 4 MiB it is larger than a core's
// private caches and lives in the shared last-level cache, where the
// neighbours' load lands: a kernel on 512 KiB or on registers alone barely
// moved while the trials above slowed by 2x.
var refBuf = make([]uint64, 1<<19)

// refSink keeps the kernel's result live.
var refSink uint64

// refKernel runs a fixed mix of integer arithmetic and random
// read-modify-writes over refBuf and returns its wall time.
func refKernel() time.Duration {
	t := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for sweep := 0; sweep < 2; sweep++ {
		for range refBuf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			refBuf[(x>>5)&(uint64(len(refBuf))-1)] += x
		}
	}
	refSink += x
	return time.Since(t)
}

// refSample is one kernel run: when it started and how long it took.
type refSample struct {
	at time.Time
	ms float64
}

// hostProbe collects reference kernel times, in the order they were taken,
// and the process's resident set size at each. A nil *hostProbe samples
// nothing. It is not safe for concurrent use: one goroutine of a phase ticks
// it, and the runner reads it after the phase.
type hostProbe struct {
	samples []refSample
	rssMiB  []float64
	spent   time.Duration // total time inside the kernel
}

// tick runs the kernel and samples the resident set if refEvery has passed
// since the kernel last ran.
func (h *hostProbe) tick(tr *tracer, parent int) {
	if h == nil || len(h.samples) > 0 && time.Since(h.samples[len(h.samples)-1].at) < refEvery {
		return
	}
	h.kernel(tr, parent)
	h.sampleRSS()
}

// kernel runs the reference kernel once, in a span of its own under parent
// so that a traced phase attributes its time.
func (h *hostProbe) kernel(tr *tracer, parent int) {
	s := tr.begin("bench.ref", parent, noOp)
	at := time.Now()
	d := refKernel()
	tr.end(s)
	h.samples = append(h.samples, refSample{at: at, ms: ms(d)})
	h.spent += d
}

// sampleRSS records the process's resident set size.
func (h *hostProbe) sampleRSS() {
	if rss, err := rssMiB(); err == nil {
		h.rssMiB = append(h.rssMiB, rss)
	}
}

// kernelTime is the total time spent inside the kernel so far.
func (h *hostProbe) kernelTime() time.Duration {
	if h == nil {
		return 0
	}
	return h.spent
}

// refMedianMs is the median of every kernel time sampled.
func (h *hostProbe) refMedianMs() float64 {
	xs := make([]float64, len(h.samples))
	for i, s := range h.samples {
		xs[i] = s.ms
	}
	return median(xs)
}

// scaleAt is the factor that takes the wall time of an op started at t to
// the reference speed: refNominalMs over the median of the three kernel
// times taken nearest t (below 1 when the host ran slower than nominal).
// It is 0 when no kernel time was taken.
func (h *hostProbe) scaleAt(t time.Time) float64 {
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	i := sort.Search(n, func(i int) bool { return !h.samples[i].at.Before(t) })
	lo, hi := i, i
	for hi-lo < min(3, n) {
		// Widen toward the side whose next sample is nearer to t.
		switch {
		case lo == 0:
			hi++
		case hi == n:
			lo--
		case t.Sub(h.samples[lo-1].at) <= h.samples[hi].at.Sub(t):
			lo--
		default:
			hi++
		}
	}
	xs := make([]float64, 0, hi-lo)
	for _, s := range h.samples[lo:hi] {
		xs = append(xs, s.ms)
	}
	return refNominalMs / median(xs)
}

// scaleOps returns each op's time at the reference speed, and the op-time
// weighted mean scale, by which a wall-clock throughput is divided.
func (h *hostProbe) scaleOps(opMs []float64, opAt []time.Time) (scaled []float64, mean float64) {
	scaled = make([]float64, len(opMs))
	var wall, ref float64
	for i, d := range opMs {
		scaled[i] = d * h.scaleAt(opAt[i])
		wall += d
		ref += scaled[i]
	}
	return scaled, ratio(ref, wall)
}
