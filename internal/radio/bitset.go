package radio

import (
	"math/bits"

	"repro/internal/graph"
)

// Bitset is a word-packed set of node ids: the engine's informed-set
// representation, shared with the delivery kernels. At n nodes it costs
// n/8 bytes instead of n (the old []bool), so at the million-node scale the
// whole set stays cache-resident during delivery.
type Bitset []uint64

// NewBitset returns an empty set over the id range [0, n).
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Get reports whether id i is in the set.
func (b Bitset) Get(i graph.NodeID) bool { return b[uint32(i)>>6]&(1<<(uint32(i)&63)) != 0 }

// Set adds id i to the set.
func (b Bitset) Set(i graph.NodeID) { b[uint32(i)>>6] |= 1 << (uint32(i) & 63) }

// Clear removes id i from the set.
func (b Bitset) Clear(i graph.NodeID) { b[uint32(i)>>6] &^= 1 << (uint32(i) & 63) }

// Reset removes every id.
func (b Bitset) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// Count returns the number of set bits (popcount over words).
func (b Bitset) Count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}
