package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestTimingRejectsUnhonourable: -warmup below zero, NaN, infinite or past
// sim.Time's range, -window at or below zero or past that range, -seconds
// under 1 ns, and a run whose warmup, windows and -seconds sum past that
// range fail before any run, naming the flag (harness.Options.Validate, or
// the conversion); every other value resolves to virtual time as given.
func TestTimingRejectsUnhonourable(t *testing.T) {
	cases := []struct {
		args       []string
		wantErr    string // the flag named; empty: accepted
		wantWarmup sim.Time
		wantWindow sim.Time
	}{
		{args: []string{"-warmup", "4", "-window", "250"}, wantWarmup: 4 * sim.Second, wantWindow: 250 * sim.Millisecond},
		{args: []string{"-warmup", "0", "-window", "1"}, wantWindow: sim.Millisecond},
		{args: []string{"-warmup", "0.5", "-window", "2000"}, wantWarmup: 500 * sim.Millisecond, wantWindow: 2 * sim.Second},
		{args: []string{"-warmup", "0.3", "-window", "1001"}, wantWarmup: 300 * sim.Millisecond, wantWindow: 1001 * sim.Millisecond},
		{args: []string{"-warmup", "-1"}, wantErr: "-warmup"},
		{args: []string{"-warmup", "NaN"}, wantErr: "-warmup"},
		{args: []string{"-warmup", "-Inf"}, wantErr: "-warmup"},
		{args: []string{"-warmup", "Inf"}, wantErr: "-warmup"},
		{args: []string{"-warmup", "1e10"}, wantErr: "-warmup"},
		{args: []string{"-warmup", "9e9"}, wantWarmup: 9e9 * sim.Second, wantWindow: 250 * sim.Millisecond},
		{args: []string{"-warmup", "5e9", "-seconds", "5e9"}, wantErr: "-warmup"},
		{args: []string{"-warmup", "4e9", "-seconds", "5e9"}, wantWarmup: 4e9 * sim.Second, wantWindow: 250 * sim.Millisecond},
		{args: []string{"-warmup", "0", "-window", "3000000000000", "-seconds", "1"}, wantErr: "-warmup"},
		{args: []string{"-warmup", "0", "-window", "9223372036854775"}, wantErr: "-window"},
		{args: []string{"-window", "0"}, wantErr: "-window"},
		{args: []string{"-window", "-100"}, wantErr: "-window"},
		{args: []string{"-seconds", "1e-10"}, wantErr: "-seconds"},
	}
	for _, c := range cases {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			options := declareFlags(fs)
			if err := fs.Parse(c.args); err != nil {
				t.Fatal(err)
			}
			opt, _, err := options()
			if c.wantErr == "" {
				if err != nil || opt.Warmup != c.wantWarmup || opt.Window != c.wantWindow {
					t.Fatalf("warmup %v, window %v, err %v; want %v, %v, nil", opt.Warmup, opt.Window, err, c.wantWarmup, c.wantWindow)
				}
				return
			}
			if err == nil || !strings.HasPrefix(err.Error(), c.wantErr+" ") {
				t.Fatalf("err = %v, want one naming %s", err, c.wantErr)
			}
		})
	}
}
