package expt

// The refactor-equivalence pin: the experiment tables must stay
// byte-identical across engine refactors. The files under
// testdata/prerefactor were originally generated from the last
// imperative-loop revision (pre-campaign-engine) at reduced scale with seed
// 777 (the same operating point as the engine-invariance test) and must NOT
// be regenerated from current code when experiments change intentionally —
// instead, regenerate them (UPDATE_EXPT_GOLDEN=1 go test -run
// TestCampaignMatchesPreRefactorGolden ./internal/expt) in the same change
// that alters an experiment's definition, so the diff shows exactly which
// cells moved.
//
// Re-baselined once with the sparse-round-engine PR: the cross-round
// stream-draw contract (radio.TxSet.DrawListStream) carries each round's
// geometric overshoot into the next round instead of redrawing it, which
// changes the RNG consumption — and hence the sampled trajectories — of
// every uniform-Bernoulli protocol (Algorithm 1 Phase 3, Algorithm 2,
// FixedProb, Elsässer–Gasieniec, UniformGossip). Distributions are
// unchanged; the engine-invariance tests pin that every engine
// configuration still reproduces these exact tables.

import (
	"os"
	"path/filepath"
	"testing"
)

// goldenIDs pin representatives of most experiment source files: fig.go
// (F1, F2), random.go (E1, E2, E5, X2), gossip.go (E6), general.go (E7),
// lower.go (E9), battery.go (X7), hetero.go (X8), geom.go (G2) and every
// table of lifetime.go (N1-N5; N1, N3, N4 and N5 run batteries flat, so
// they pin the energy model's death rounds). adversity.go, extra.go (with
// the wall-clock-reporting X4), channel.go and scale.go have no golden; the
// shape tests exercise them instead.
var goldenIDs = []string{"F1", "F2", "E1", "E2", "E5", "E6", "E7", "E9", "X2", "X7", "X8", "G2", "N1", "N2", "N3", "N4", "N5"}

func TestCampaignMatchesPreRefactorGolden(t *testing.T) {
	c := Config{Full: false, Seed: 777, Workers: 0}
	for _, id := range goldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %s not registered", id)
			}
			blob := ""
			for _, tb := range e.Run(c) {
				blob += tb.Markdown() + "\n"
			}
			path := filepath.Join("testdata", "prerefactor", id+".md")
			if os.Getenv("UPDATE_EXPT_GOLDEN") != "" {
				if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if blob != string(want) {
				t.Errorf("%s: campaign-engine tables differ from pre-refactor golden %s\ngot:\n%s", id, path, blob)
			}
		})
	}
}
