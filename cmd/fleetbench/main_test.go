package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestRackFiguresRejectUnreadFlags: a rack figure reads no -faults,
// -workload or -trace, so setting one fails the run, naming the flag,
// while the workloads figure keeps -trace for its replay rung.
func TestRackFiguresRejectUnreadFlags(t *testing.T) {
	const sample = "../../internal/trace/testdata/sample_msr.csv"
	cases := []struct {
		fig     string
		args    []string
		wantErr string // the flag named; empty: accepted
	}{
		{fig: "fleet", args: []string{"-fleet", "4", "-seconds", "0.5", "-parallel", "1"}},
		{fig: "fleet", args: []string{"-fleet", "4", "-faults", "heavy"}, wantErr: "-faults"},
		{fig: "fleet", args: []string{"-workload", "bursty"}, wantErr: "-workload"},
		{fig: "tiers", args: []string{"-trace", sample}, wantErr: "-trace"},
		{fig: "workloads", args: []string{"-trace", sample}},
		{fig: "faults", args: []string{"-faults", "heavy", "-workload", "bursty"}},
	}
	for _, c := range cases {
		t.Run(c.fig+" "+strings.Join(c.args, " "), func(t *testing.T) {
			fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			resolve := harness.SharedFlags(fs)
			if err := fs.Parse(c.args); err != nil {
				t.Fatal(err)
			}
			_, _, err := resolve(flagMode(c.fig))
			if c.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil || err.Error() != c.wantErr+" does not apply to a rack" {
				t.Fatalf("err = %v, want %q", err, c.wantErr+" does not apply to a rack")
			}
		})
	}
}
