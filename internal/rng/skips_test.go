package rng

import (
	"math"
	"slices"
	"testing"
)

// FuzzAppendSkips holds AppendSkips to the Geometric loop it replaces, call
// after call on one stream: the appended positions, the carried gap and the
// generator state must all agree. ks is read two bytes per window length
// (at most 64 windows); p maps into (0, 1] as in FuzzGeometricMatchesFormula
// and gap into [0, MaxInt32], Geometric's range.
func FuzzAppendSkips(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, p float64, gap int64, base int32, ks []byte) {
		p = math.Abs(p)
		if p > 1 {
			p = 1 / p
		}
		if !(p > 0) {
			t.Skip()
		}
		if gap < 0 {
			gap = -(gap + 1)
		}
		gap %= math.MaxInt32 + 1
		base &= 1<<20 - 1
		r, twin := New(seed), New(seed)
		got, want := []int32{}, []int32{}
		gotGap, wantGap := int(gap), int(gap)
		for w := 0; w+1 < len(ks) && w < 128; w += 2 {
			k := int(ks[w]) | int(ks[w+1])<<8
			got, gotGap = r.AppendSkips(got, base, gotGap, k, p)
			i := wantGap
			for ; i < k; i += 1 + twin.Geometric(p) {
				want = append(want, base+int32(i))
			}
			wantGap = i - k
			if !slices.Equal(got, want) || gotGap != wantGap {
				t.Fatalf("window %d (k=%d, p=%v): positions %v gap %d, loop %v gap %d", w/2, k, p, got, gotGap, want, wantGap)
			}
			if r.xoshiro != twin.xoshiro {
				t.Fatalf("window %d (k=%d, p=%v): generator state differs from the loop's", w/2, k, p)
			}
			got, want = got[:0], want[:0]
		}
	})
}
