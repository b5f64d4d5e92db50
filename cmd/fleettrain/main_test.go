package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestShapeRejectsUntrainable: -lr at or below zero or not finite,
// -episode-seconds under 1 ns, not finite or past sim.Time's range,
// -window at or below zero or past that range, and -episodes at or below
// zero fail before any training, naming the flag
// (harness.PretrainConfig.Validate, or the conversion); every other value
// resolves to virtual time as given.
func TestShapeRejectsUntrainable(t *testing.T) {
	cases := []struct {
		args        []string
		wantErr     string // the flag named; empty: accepted
		wantEpisode sim.Time
		wantWindow  sim.Time
	}{
		{args: nil, wantEpisode: 30 * sim.Second, wantWindow: 100 * sim.Millisecond},
		{args: []string{"-lr", "1e-6", "-episode-seconds", "0.5", "-window", "1"}, wantEpisode: 500 * sim.Millisecond, wantWindow: sim.Millisecond},
		{args: []string{"-window", "1001"}, wantEpisode: 30 * sim.Second, wantWindow: 1001 * sim.Millisecond},
		{args: []string{"-lr", "-1"}, wantErr: "-lr"},
		{args: []string{"-lr", "0"}, wantErr: "-lr"},
		{args: []string{"-lr", "NaN"}, wantErr: "-lr"},
		{args: []string{"-lr", "Inf"}, wantErr: "-lr"},
		{args: []string{"-episode-seconds", "0"}, wantErr: "-episode-seconds"},
		{args: []string{"-episode-seconds", "-2"}, wantErr: "-episode-seconds"},
		{args: []string{"-episode-seconds", "NaN"}, wantErr: "-episode-seconds"},
		{args: []string{"-episode-seconds", "Inf"}, wantErr: "-episode-seconds"},
		{args: []string{"-episode-seconds", "1e10"}, wantErr: "-episode-seconds"},
		{args: []string{"-episode-seconds", "1e-10"}, wantErr: "-episode-seconds"},
		{args: []string{"-episode-seconds", "9e9"}, wantEpisode: 9e9 * sim.Second, wantWindow: 100 * sim.Millisecond},
		{args: []string{"-window", "0"}, wantErr: "-window"},
		{args: []string{"-window", "-100"}, wantErr: "-window"},
		{args: []string{"-window", "9223372036854775"}, wantErr: "-window"},
		{args: []string{"-episodes", "0"}, wantErr: "-episodes"},
	}
	for _, c := range cases {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			fs := flag.NewFlagSet("fleettrain", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			config := declareConfig(fs)
			if err := fs.Parse(c.args); err != nil {
				t.Fatal(err)
			}
			pc, err := config()
			if c.wantErr == "" {
				if err != nil || pc.EpisodeDuration != c.wantEpisode || pc.Window != c.wantWindow {
					t.Fatalf("episode %v, window %v, err %v; want %v, %v, nil", pc.EpisodeDuration, pc.Window, err, c.wantEpisode, c.wantWindow)
				}
				return
			}
			if err == nil || !strings.HasPrefix(err.Error(), c.wantErr+" ") {
				t.Fatalf("err = %v, want one naming %s", err, c.wantErr)
			}
		})
	}
}
