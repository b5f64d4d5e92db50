package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestTimingRejectsUnhonourable: -warmup below zero, NaN, infinite or past
// sim.Time's range, -window at or below zero or past that range, and a run
// whose warmup, windows and -seconds sum past it fail before any run, naming
// the flag; every other value resolves to virtual time as given.
func TestTimingRejectsUnhonourable(t *testing.T) {
	cases := []struct {
		warmup     float64
		windowMs   int
		duration   sim.Time // from -seconds
		wantErr    string   // the flag named; empty: accepted
		wantWarmup sim.Time
		wantWindow sim.Time
	}{
		{warmup: 4, windowMs: 250, wantWarmup: 4 * sim.Second, wantWindow: 250 * sim.Millisecond},
		{warmup: 0, windowMs: 1, wantWindow: sim.Millisecond},
		{warmup: 0.5, windowMs: 2000, wantWarmup: 500 * sim.Millisecond, wantWindow: 2 * sim.Second},
		{warmup: -1, windowMs: 250, wantErr: "-warmup"},
		{warmup: math.NaN(), windowMs: 250, wantErr: "-warmup"},
		{warmup: math.Inf(-1), windowMs: 250, wantErr: "-warmup"},
		{warmup: math.Inf(1), windowMs: 250, wantErr: "-warmup"},
		{warmup: 1e10, windowMs: 250, wantErr: "-warmup"},
		{warmup: 9e9, windowMs: 250, wantWarmup: 9e9 * sim.Second, wantWindow: 250 * sim.Millisecond},
		{warmup: 5e9, windowMs: 250, duration: 5e9 * sim.Second, wantErr: "-warmup"},
		{warmup: 4e9, windowMs: 250, duration: 5e9 * sim.Second, wantWarmup: 4e9 * sim.Second, wantWindow: 250 * sim.Millisecond},
		{warmup: 0, windowMs: 3e12, duration: sim.Second, wantErr: "-warmup"},
		{warmup: 0, windowMs: math.MaxInt64 / 1000, wantErr: "-window"},
		{warmup: 4, windowMs: 0, wantErr: "-window"},
		{warmup: 4, windowMs: -100, wantErr: "-window"},
	}
	for _, c := range cases {
		warmup, window, err := timing(c.warmup, c.windowMs, c.duration)
		if c.wantErr == "" {
			if err != nil || warmup != c.wantWarmup || window != c.wantWindow {
				t.Errorf("timing(%v, %d, %d) = %v, %v, %v; want %v, %v, nil",
					c.warmup, c.windowMs, c.duration, warmup, window, err, c.wantWarmup, c.wantWindow)
			}
			continue
		}
		if err == nil || !strings.HasPrefix(err.Error(), c.wantErr+" ") {
			t.Errorf("timing(%v, %d, %d): err = %v, want one naming %s", c.warmup, c.windowMs, c.duration, err, c.wantErr)
		}
	}
}
