package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestTimingRejectsUnhonourable: -warmup below zero (or NaN) and -window
// at or below zero fail before any run, naming the flag; every other value
// resolves to virtual time as given.
func TestTimingRejectsUnhonourable(t *testing.T) {
	cases := []struct {
		warmup     float64
		windowMs   int
		wantErr    string // the flag named; empty: accepted
		wantWarmup sim.Time
		wantWindow sim.Time
	}{
		{warmup: 4, windowMs: 250, wantWarmup: 4 * sim.Second, wantWindow: 250 * sim.Millisecond},
		{warmup: 0, windowMs: 1, wantWindow: sim.Millisecond},
		{warmup: 0.5, windowMs: 2000, wantWarmup: 500 * sim.Millisecond, wantWindow: 2 * sim.Second},
		{warmup: -1, windowMs: 250, wantErr: "-warmup"},
		{warmup: math.NaN(), windowMs: 250, wantErr: "-warmup"},
		{warmup: math.Inf(-1), windowMs: 250, wantErr: "-warmup"},
		{warmup: 4, windowMs: 0, wantErr: "-window"},
		{warmup: 4, windowMs: -100, wantErr: "-window"},
	}
	for _, c := range cases {
		warmup, window, err := timing(c.warmup, c.windowMs)
		if c.wantErr == "" {
			if err != nil || warmup != c.wantWarmup || window != c.wantWindow {
				t.Errorf("timing(%v, %d) = %v, %v, %v; want %v, %v, nil",
					c.warmup, c.windowMs, warmup, window, err, c.wantWarmup, c.wantWindow)
			}
			continue
		}
		if err == nil || !strings.HasPrefix(err.Error(), c.wantErr+" ") {
			t.Errorf("timing(%v, %d): err = %v, want one naming %s", c.warmup, c.windowMs, err, c.wantErr)
		}
	}
}
