package main

import (
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name   string
		trials int
		want   string // substring of the error; "" means accepted
	}{
		{"defaults", 10, ""},
		{"one trial", 1, ""},
		{"zero trials", 0, "-trials"},
		{"negative trials", -3, "-trials"},
	}
	for _, c := range cases {
		err := checkFlags(c.trials)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: got %v, want an error naming %s", c.name, err, c.want)
		}
	}
}
