package obs

import (
	"testing"

	"repro/internal/sim"
)

func TestSamplerTicksAndStops(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSampler()
	var seen []sim.Time
	s.AddProbe(func(now sim.Time) { seen = append(seen, now) })
	s.Start(eng, 10*sim.Millisecond)
	eng.RunUntil(55 * sim.Millisecond)
	if len(seen) != 5 || seen[0] != 10*sim.Millisecond {
		t.Fatalf("probe observations %v in 55ms at 10ms cadence, want 5 from 10ms", seen)
	}
	s.Stop()
	// The ticker lapses on its next firing; the queue then drains fully.
	eng.Run()
	if len(seen) != 5 {
		t.Fatalf("ticks advanced to %d after Stop", len(seen))
	}
}

func TestSamplerDefaultPeriod(t *testing.T) {
	eng := sim.NewEngine()
	s := NewSampler()
	ticks := 0
	s.AddProbe(func(sim.Time) { ticks++ })
	s.Start(eng, 0)
	eng.RunUntil(DefaultSamplePeriod * 3)
	if ticks != 3 {
		t.Fatalf("got %d ticks, want 3", ticks)
	}
	s.Stop()
	eng.Run()
}

func TestNilSamplerIsSafe(t *testing.T) {
	var s *Sampler
	s.AddProbe(func(sim.Time) {})
	s.Start(sim.NewEngine(), 0)
	s.Stop()
}
