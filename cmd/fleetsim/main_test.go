package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestModeRejectsIgnoredFlags: a flag the chosen mode does not read fails
// the run, naming the flag, instead of being silently dropped. fleetsim's
// own flags fail in checkMode, the shared ones when they resolve.
func TestModeRejectsIgnoredFlags(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string // the flag named; empty: accepted
	}{
		{args: nil},
		{args: []string{"-mix", "YCSB,MLPrep", "-policy", "hardware", "-faults", "light", "-workload", "bursty", "-decisions", "d.jsonl"}},
		{args: []string{"-fleet", "4", "-placement", "hash"}},
		{args: []string{"-fleet", "4", "-tiers", "-tier-policy", "watermark"}},
		{args: []string{"-fleet", "4", "-seconds", "0.5", "-parallel", "2", "-seed", "3"}},
		{args: []string{"-fleet", "4", "-faults", "heavy"}, wantErr: "-faults"},
		{args: []string{"-fleet", "4", "-workload", "bursty"}, wantErr: "-workload"},
		{args: []string{"-fleet", "4", "-mix", "YCSB,MLPrep"}, wantErr: "-mix"},
		{args: []string{"-fleet", "4", "-policy", "hardware"}, wantErr: "-policy"},
		{args: []string{"-fleet", "4", "-trace", "t.bin"}, wantErr: "-trace"},
		{args: []string{"-fleet", "4", "-decisions", "d.jsonl"}, wantErr: "-decisions"},
		{args: []string{"-fleet", "4", "-tier-policy", "watermark"}, wantErr: "-tier-policy"},
		{args: []string{"-fleet", "4", "-tiers", "-placement", "hash"}, wantErr: "-placement"},
		{args: []string{"-tiers"}, wantErr: "-tiers"},
		{args: []string{"-fleet", "0", "-tiers"}, wantErr: "-tiers"},
		{args: []string{"-tier-policy", "static-pin"}, wantErr: "-tier-policy"},
		{args: []string{"-placement", "round-robin"}, wantErr: "-placement"},
	}
	for _, c := range cases {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			fs := flag.NewFlagSet("fleetsim", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f := declareFlags(fs)
			if err := fs.Parse(c.args); err != nil {
				t.Fatal(err)
			}
			mode, err := checkMode(fs, *f.tiers)
			if err == nil {
				_, _, err = f.shared(mode)
			}
			if c.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil || !strings.HasPrefix(err.Error(), c.wantErr+" ") {
				t.Fatalf("err = %v, want one naming %s", err, c.wantErr)
			}
		})
	}
}
