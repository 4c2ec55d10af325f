package main

import (
	"math"
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name      string
		trials    int
		maxRounds int
		loss      float64
		want      string // substring of the error; "" means accepted
	}{
		{"defaults", 10, 200000, 0, ""},
		{"loss just below one", 1, 1, 0.999, ""},
		{"zero trials", 0, 200000, 0, "-trials"},
		{"negative trials", -3, 200000, 0, "-trials"},
		{"zero maxrounds", 10, 0, 0, "-maxrounds"},
		{"loss one", 10, 200000, 1, "-loss"},
		{"negative loss", 10, 200000, -0.1, "-loss"},
		{"NaN loss", 10, 200000, math.NaN(), "-loss"},
	}
	for _, c := range cases {
		err := checkFlags(c.trials, c.maxRounds, c.loss)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: got %v, want an error naming %s", c.name, err, c.want)
		}
	}
}
