package radio

import (
	"runtime"
	"slices"
	"sync"

	"repro/internal/graph"
)

// parallelDeliverer is the sharded delivery kernel. It replaces the old
// atomic-CAS design with receiver-sharded counting, which does the same
// work with zero atomics and strictly sequential memory traffic:
//
//	Pass 1 (sharded by transmitter): each worker walks its transmitters'
//	out-edges and distributes the hit receivers into per-(worker, shard)
//	buckets, where a shard is a contiguous receiver-id range.
//
//	Pass 2 (sharded by receiver): each shard owner merges the buckets
//	aimed at its range into the shared hit array — no two workers touch
//	the same counter — then resolves its receivers exactly like the
//	serial kernel (> maxHits surviving hits collide, 1..maxHits deliver)
//	and resets its counters.
//
// Per-shard delivered lists are sorted locally; concatenating them in shard
// order yields a globally sorted result, which makes the kernel
// bit-identical to the serial one. All buckets and output buffers are
// retained across rounds, so the steady state allocates nothing.
//
// This exists for large-graph throughput (the X4 engine experiment); the
// experiment harness otherwise parallelises across independent trials,
// which is the better granularity for sweeps.
type parallelDeliverer struct {
	n       int
	workers int
	shift   uint // receiver shard = id >> shift
	shards  int

	hits    []int32
	st      deliveryState      // serial fallback for small rounds
	buckets [][][]graph.NodeID // [worker][shard] hit receivers
	touched [][]graph.NodeID   // per-shard first-touch lists
	outD    [][]graph.NodeID   // per-shard delivered lists
	colls   []int              // per-shard collision counts
	merged  []graph.NodeID     // concatenated delivered scratch
}

// parallelWorkers resolves Options.Workers: 0 or less means GOMAXPROCS.
func parallelWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// newParallelDeliverer builds the kernel for n nodes and a resolved
// (positive) worker count.
func newParallelDeliverer(n, workers int) *parallelDeliverer {
	shift := uint(0)
	for (n-1)>>shift >= workers {
		shift++
	}
	shards := ((n - 1) >> shift) + 1
	pd := &parallelDeliverer{
		n:       n,
		workers: workers,
		shift:   shift,
		shards:  shards,
		hits:    make([]int32, n),
		buckets: make([][][]graph.NodeID, workers),
		touched: make([][]graph.NodeID, shards),
		outD:    make([][]graph.NodeID, shards),
		colls:   make([]int, shards),
	}
	for w := range pd.buckets {
		pd.buckets[w] = make([][]graph.NodeID, shards)
	}
	pd.st.hits = pd.hits
	return pd
}

func (pd *parallelDeliverer) deliver(g *graph.Digraph, round int, transmitters []graph.NodeID, informed Bitset, caps channelCaps) (delivered []graph.NodeID, collisions int) {
	w := pd.workers
	if len(transmitters) < 4*w {
		// Not worth fanning out; run the serial algorithm on our buffers.
		return pd.st.deliver(g, round, transmitters, informed, caps)
	}

	// Pass 1: distribute hit receivers into per-(worker, shard) buckets,
	// dropping signals the channel's edge filter fades out (the filter is a
	// pure hash of (seed, round, tx, rx), so workers need no shared state).
	var wg sync.WaitGroup
	chunk := (len(transmitters) + w - 1) / w
	nBuckets := (len(transmitters) + chunk - 1) / chunk
	for i := 0; i < nBuckets; i++ {
		lo := i * chunk
		hi := min(lo+chunk, len(transmitters))
		wg.Add(1)
		go func(bw [][]graph.NodeID, txs []graph.NodeID) {
			defer wg.Done()
			for s := range bw {
				bw[s] = bw[s][:0]
			}
			for _, u := range txs {
				out := g.Out(u)
				if caps.edgeOK == nil {
					for _, t := range out {
						s := uint32(t) >> pd.shift
						bw[s] = append(bw[s], t)
					}
				} else {
					for _, t := range out {
						if !caps.edgeOK(round, u, t) {
							continue
						}
						s := uint32(t) >> pd.shift
						bw[s] = append(bw[s], t)
					}
				}
			}
		}(pd.buckets[i], transmitters[lo:hi])
	}
	wg.Wait()

	// Pass 2: each shard owner counts its range and resolves receivers.
	for s := 0; s < pd.shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			touched := pd.touched[s][:0]
			for b := 0; b < nBuckets; b++ {
				for _, t := range pd.buckets[b][s] {
					if pd.hits[t] == 0 {
						touched = append(touched, t)
					}
					pd.hits[t]++
				}
			}
			out := pd.outD[s][:0]
			coll := 0
			for _, t := range touched {
				h := pd.hits[t]
				pd.hits[t] = 0
				if h > caps.maxHits {
					coll++
					continue
				}
				if informed.Get(t) {
					continue
				}
				out = append(out, t)
			}
			slices.Sort(out)
			pd.touched[s] = touched
			pd.outD[s] = out
			pd.colls[s] = coll
		}(s)
	}
	wg.Wait()

	// Shards are ascending id ranges, so concatenation is globally sorted.
	merged := pd.merged[:0]
	for s := 0; s < pd.shards; s++ {
		merged = append(merged, pd.outD[s]...)
		collisions += pd.colls[s]
	}
	pd.merged = merged
	return merged, collisions
}
