package obs

import "repro/internal/sim"

// DefaultSamplePeriod is the telemetry cadence used when a sampler is
// started with a non-positive period: 100 ms of virtual time, fine
// enough to resolve behaviour inside one paper-scale decision window.
const DefaultSamplePeriod = 100 * sim.Millisecond

// Sampler drives time-series probes from a sim.Engine ticker. Probes are
// closures registered by the harness (or any owner of a platform) that
// read model state and Set registry metrics; the sampler itself knows
// nothing about what is being sampled, which keeps obs free of imports
// from the model packages.
type Sampler struct {
	probes []func(now sim.Time)
}

// NewSampler returns an empty sampler.
func NewSampler() *Sampler {
	return &Sampler{}
}

// AddProbe registers fn to run on every sample tick. Not safe to call
// concurrently with Start's ticks; register probes before starting.
func (s *Sampler) AddProbe(fn func(now sim.Time)) {
	if s == nil || fn == nil {
		return
	}
	s.probes = append(s.probes, fn)
}

// Start arms the periodic probe ticker on eng, sampling every period of
// virtual time (DefaultSamplePeriod when period <= 0), until the engine's
// StopTickers.
func (s *Sampler) Start(eng *sim.Engine, period sim.Time) {
	if s == nil {
		return
	}
	if period <= 0 {
		period = DefaultSamplePeriod
	}
	eng.Ticker(period, func(now sim.Time) {
		for _, p := range s.probes {
			p(now)
		}
	})
}
