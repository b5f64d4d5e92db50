package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestShapeRejectsUntrainable: -lr at or below zero or not finite,
// -episode-seconds at or below zero or not finite, and -window at or below
// zero fail before any training, naming the flag; every other value
// resolves to virtual time as given.
func TestShapeRejectsUntrainable(t *testing.T) {
	cases := []struct {
		lr, epSeconds float64
		windowMs      int
		wantErr       string // the flag named; empty: accepted
		wantEpisode   sim.Time
		wantWindow    sim.Time
	}{
		{lr: 1e-3, epSeconds: 30, windowMs: 100, wantEpisode: 30 * sim.Second, wantWindow: 100 * sim.Millisecond},
		{lr: 1e-6, epSeconds: 0.5, windowMs: 1, wantEpisode: 500 * sim.Millisecond, wantWindow: sim.Millisecond},
		{lr: -1, epSeconds: 30, windowMs: 100, wantErr: "-lr"},
		{lr: 0, epSeconds: 30, windowMs: 100, wantErr: "-lr"},
		{lr: math.NaN(), epSeconds: 30, windowMs: 100, wantErr: "-lr"},
		{lr: math.Inf(1), epSeconds: 30, windowMs: 100, wantErr: "-lr"},
		{lr: 1e-3, epSeconds: 0, windowMs: 100, wantErr: "-episode-seconds"},
		{lr: 1e-3, epSeconds: -2, windowMs: 100, wantErr: "-episode-seconds"},
		{lr: 1e-3, epSeconds: math.NaN(), windowMs: 100, wantErr: "-episode-seconds"},
		{lr: 1e-3, epSeconds: math.Inf(1), windowMs: 100, wantErr: "-episode-seconds"},
		{lr: 1e-3, epSeconds: 30, windowMs: 0, wantErr: "-window"},
		{lr: 1e-3, epSeconds: 30, windowMs: -100, wantErr: "-window"},
	}
	for _, c := range cases {
		episode, window, err := shape(c.lr, c.epSeconds, c.windowMs)
		if c.wantErr == "" {
			if err != nil || episode != c.wantEpisode || window != c.wantWindow {
				t.Errorf("shape(%v, %v, %d) = %v, %v, %v; want %v, %v, nil",
					c.lr, c.epSeconds, c.windowMs, episode, window, err, c.wantEpisode, c.wantWindow)
			}
			continue
		}
		if err == nil || !strings.HasPrefix(err.Error(), c.wantErr+" ") {
			t.Errorf("shape(%v, %v, %d): err = %v, want one naming %s", c.lr, c.epSeconds, c.windowMs, err, c.wantErr)
		}
	}
}
