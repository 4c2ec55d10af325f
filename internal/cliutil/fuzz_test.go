package cliutil

import (
	"testing"

	"repro/internal/rng"
)

// FuzzParseProtocol feeds an arbitrary spec to ParseBroadcaster and
// ParseGossiper on a network of n ≤ 4096 nodes with diameter hint D in
// [1, n]. Each must return an error or a factory whose protocol survives
// Begin, never panic; a gossip factory also comes with a budget of at least
// one round.
func FuzzParseProtocol(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string, n, d uint16) {
		nn := 1 + int(n)%4096
		dd := 1 + int(d)%nn
		if factory, err := ParseBroadcaster(spec, nn, dd); err == nil {
			factory().Begin(nn, 0, rng.New(1))
		}
		if factory, budget, err := ParseGossiper(spec, nn); err == nil {
			if budget < 1 {
				t.Fatalf("%q: accepted with round budget %d", spec, budget)
			}
			factory().Begin(nn, rng.New(1))
		}
	})
}
