package baseline

import (
	"testing"

	"repro/internal/rng"
)

// FixedProb's RoundProb schedule is what the engine's skip gate consults;
// pin it so a drifted probability cannot rot silently.

func TestFixedProbRoundProbSchedule(t *testing.T) {
	f := &FixedProb{Q: 0.07, Window: 50}
	f.Begin(128, 0, rng.New(1))
	for _, round := range []int{1, 10, 9999} {
		if q, ok := f.RoundProb(round); !ok || q != 0.07 {
			t.Fatalf("round %d: RoundProb = (%v, %v), want (0.07, true)", round, q, ok)
		}
	}
}
