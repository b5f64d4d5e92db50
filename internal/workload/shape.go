package workload

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Shape names a temporal overlay applied on top of a base profile: the
// workload keeps its request mix and address pattern but its arrival
// process changes. Shapes are the rungs of the workload scenario
// (steady → diurnal → bursty → replay), mirroring how the fault scenario
// escalates fault rates.
type Shape uint8

// Temporal workload shapes.
const (
	// ShapeSteady leaves the profile untouched (the legacy generators).
	ShapeSteady Shape = iota
	// ShapeDiurnal overlays multi-period sinusoidal rate modulation.
	ShapeDiurnal
	// ShapeBursty overlays a two-state MMPP regime switch.
	ShapeBursty
	// ShapeReplay swaps the synthetic process for deterministic trace
	// replay (a supplied trace, or one synthesized from the profile).
	ShapeReplay
)

func (s Shape) String() string {
	switch s {
	case ShapeSteady:
		return "steady"
	case ShapeDiurnal:
		return "diurnal"
	case ShapeBursty:
		return "bursty"
	case ShapeReplay:
		return "replay"
	}
	return fmt.Sprintf("shape(%d)", uint8(s))
}

// ParseShape resolves a shape name from a CLI flag.
func ParseShape(name string) (Shape, error) {
	for _, s := range Shapes() {
		if s.String() == name {
			return s, nil
		}
	}
	return ShapeSteady, fmt.Errorf("workload: unknown shape %q (have steady, diurnal, bursty, replay)", name)
}

// Shapes lists all shapes in ladder order.
func Shapes() []Shape {
	return []Shape{ShapeSteady, ShapeDiurnal, ShapeBursty, ShapeReplay}
}

// synthReplayLen and synthPages are the length and the logical space of
// the trace ApplyShape synthesizes when a replay shape is requested without
// a supplied trace.
const (
	synthReplayLen = 20000
	synthPages     = 1 << 20
)

// ApplyShape overlays a temporal shape on prof. The profile keeps its
// name (so per-workload SLOs and result collection still key correctly)
// and its request mix; only the arrival process changes. seed
// parameterizes the synthetic replay trace so distinct tenants replay
// distinct traces; replay uses the supplied records when non-empty, and a
// profile that is already a replay replays its own records (a synthesized
// one keeps its recipe). Otherwise the replay is prof's
// SynthesizeTrace(20 000, 1<<20, sim.NewRNG(seed)), which each generator
// draws as it consumes it. Compressed periods: the simulated runs last
// seconds, not days, so the "diurnal" periods here are seconds-scale
// stand-ins for the multi-hour cycles real fleets see.
func ApplyShape(prof Profile, s Shape, seed int64, replay []trace.Record) Profile {
	switch s {
	case ShapeDiurnal:
		prof.Diurnal = []Harmonic{
			{Period: 4 * sim.Second, Amp: 0.55},
			{Period: 1500 * sim.Millisecond, Amp: 0.3},
			{Period: 700 * sim.Millisecond, Amp: 0.15},
		}
	case ShapeBursty:
		if prof.ClosedLoop {
			// Closed loops self-limit, so bursts mostly modulate think
			// time; keep the swing moderate.
			prof.Burst = &Burst{
				HighFactor: 1.5, LowFactor: 0.3,
				MeanHigh: 400 * sim.Millisecond, MeanLow: 800 * sim.Millisecond,
			}
		} else {
			prof.Burst = &Burst{
				HighFactor: 5, LowFactor: 0.6,
				MeanHigh: 250 * sim.Millisecond, MeanLow: 900 * sim.Millisecond,
			}
		}
	case ShapeReplay:
		if len(replay) == 0 && prof.Replay != nil {
			if sp := prof.Replay.synth; sp != nil {
				prof.Replay = &Replay{Loop: true, synth: sp}
				break
			}
			replay = prof.SynthesizeTrace(synthReplayLen, synthPages, nil)
		}
		if len(replay) > 0 {
			prof.Replay = &Replay{Records: replay, Loop: true}
			break
		}
		if err := prof.Validate(); err != nil {
			panic(err)
		}
		// The trace has its own stream, so drawing its records later,
		// interleaved with the run, draws the same values in the same order.
		prof.Replay = &Replay{Loop: true, synth: &synthSpec{prof: prof, seed: seed, n: synthReplayLen}}
	}
	return prof
}
