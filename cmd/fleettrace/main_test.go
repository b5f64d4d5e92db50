package main

import (
	"strings"
	"testing"
)

// TestCheckSynthRejectsUnreplayable: a record count below one and an
// unknown workload fail before anything is synthesized, naming the flag;
// every built-in profile at a positive count is accepted.
func TestCheckSynthRejectsUnreplayable(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		wantErr string // the flag named; empty: accepted
	}{
		{name: "YCSB", n: 20000},
		{name: "TeraSort", n: 1},
		{name: "YCSB", n: 0, wantErr: "-n"},
		{name: "YCSB", n: -5, wantErr: "-n"},
		{name: "Nope", n: 100, wantErr: "-workload"},
		{name: "", n: 100, wantErr: "-workload"},
		{name: "ycsb", n: 100, wantErr: "-workload"},
	}
	for _, c := range cases {
		err := checkSynth(c.name, c.n)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("checkSynth(%q, %d) = %v, want nil", c.name, c.n, err)
			}
			continue
		}
		if err == nil || !strings.HasPrefix(err.Error(), c.wantErr+" ") {
			t.Errorf("checkSynth(%q, %d): err = %v, want one naming %s", c.name, c.n, err, c.wantErr)
		}
	}
}
