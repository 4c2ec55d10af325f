package main

import (
	"strings"
	"testing"
	"time"
)

func TestCheckFlags(t *testing.T) {
	const s = time.Second
	cases := []struct {
		name                       string
		lease, hb                  time.Duration
		maxTries                   int
		backoff, backoffMax, sweep time.Duration
		want                       string // substring of the error; "" means accepted
	}{
		{"defaults", 30 * s, 0, 4, s / 4, 30 * s, s, ""},
		{"zeros keep their defaults", 0, 0, 0, 0, 0, s, ""},
		{"negative lease", -s, 0, 4, s, s, s, "-lease"},
		{"negative heartbeat timeout", s, -s, 4, s, s, s, "-heartbeat-timeout"},
		{"negative max attempts", s, 0, -1, s, s, s, "-max-attempts"},
		{"negative backoff", s, 0, 4, -s, s, s, "-backoff "},
		{"negative backoff max", s, 0, 4, s, -s, s, "-backoff-max"},
		{"zero sweep", s, 0, 4, s, s, 0, "-sweep"},
		{"negative sweep", s, 0, 4, s, s, -s, "-sweep"},
	}
	for _, c := range cases {
		err := checkFlags(c.lease, c.hb, c.maxTries, c.backoff, c.backoffMax, c.sweep)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: got %v, want an error naming %s", c.name, err, c.want)
		}
	}
}
