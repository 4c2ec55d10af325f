package expt

// The engine-configuration invariance test of the delivery kernels and
// silent-round skipping: every figure and theorem experiment (F1–F2, E1–E12
// at reduced scale) must produce byte-identical tables for a fixed seed
// whichever delivery kernel (serial, pull, dense or receiver-sharded
// parallel) the engine uses and whether or not it skips. The X experiments
// are excluded only because some report wall-clock columns.

import (
	"testing"

	"repro/internal/radio"
)

// N2 rides along: its tables carry per-node energy columns, so invariance
// here also pins the energy accounting across engine configurations at the
// experiment level (the radio package holds the per-node bit-identity test).
// C2 and C4 extend the pin to the channel layer: hashed per-edge loss /
// per-receiver fade draws and duty-cycled listener accounting must also be
// kernel- and skip-independent.
var equivalenceIDs = []string{
	"F1", "F2", "E1", "E2", "E3", "E4", "E5", "E6",
	"E7", "E8", "E9", "E10", "E11", "E12", "N2", "C2", "C4",
}

// renderExperiments runs the given experiments at reduced scale and returns
// one markdown blob per id.
func renderExperiments(t *testing.T, ids []string) map[string]string {
	t.Helper()
	out := make(map[string]string, len(ids))
	c := Config{Full: false, Seed: 777, Workers: 0}
	for _, id := range ids {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		blob := ""
		for _, tb := range e.Run(c) {
			blob += tb.Markdown() + "\n"
		}
		out[id] = blob
	}
	return out
}

func TestExperimentTablesInvariantUnderEngineConfiguration(t *testing.T) {
	defer radio.SetEngineOverrides(radio.EngineOverrides{})

	radio.SetEngineOverrides(radio.EngineOverrides{})
	base := renderExperiments(t, equivalenceIDs)

	// Every delivery-kernel and skip forcing must reproduce the default
	// tables byte for byte (no experiment in the battery renders collision
	// counts, so even the pull kernel's uninformed-side counting is
	// invisible here).
	forcings := []struct {
		name string
		o    radio.EngineOverrides
	}{
		{"push kernel", radio.EngineOverrides{Kernel: radio.KernelPush}},
		{"pull kernel", radio.EngineOverrides{Kernel: radio.KernelPull}},
		{"parallel kernel", radio.EngineOverrides{Kernel: radio.KernelParallel}},
		{"dense kernel", radio.EngineOverrides{Kernel: radio.KernelDense}},
		{"skip disabled", radio.EngineOverrides{DisableSkip: true}},
		{"pull+noskip", radio.EngineOverrides{Kernel: radio.KernelPull, DisableSkip: true}},
	}
	for _, f := range forcings {
		radio.SetEngineOverrides(f.o)
		alt := renderExperiments(t, equivalenceIDs)
		for _, id := range equivalenceIDs {
			if base[id] != alt[id] {
				t.Errorf("%s: tables differ under forcing %q", id, f.name)
			}
		}
	}
	radio.SetEngineOverrides(radio.EngineOverrides{})
}

// TestSweepScratchDeterminism pins the other half of the trial-loop
// contract: per-worker scratch reuse must not leak state between trials, so
// serial (workers=1, or Parallelism "off" over four workers) and parallel
// sweeps stay bit-identical.
func TestSweepScratchDeterminism(t *testing.T) {
	run := func(c Config) map[string]string {
		c.Seed = 31337
		e, _ := ByID("E1")
		out := map[string]string{}
		for _, tb := range e.Run(c) {
			out[tb.Title] = tb.Markdown()
		}
		return out
	}
	serial := run(Config{Workers: 1})
	for name, c := range map[string]Config{
		"workers=4":                  {Workers: 4},
		"workers=4, parallelism=off": {Workers: 4, Parallelism: "off"},
	} {
		other := run(c)
		for k, v := range serial {
			if other[k] != v {
				t.Fatalf("E1 table %q differs between workers=1 and %s", k, name)
			}
		}
	}
}
