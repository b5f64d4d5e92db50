// Package fault implements a deterministic, seed-driven NAND fault
// injector for the flash device model: program and erase failures (which
// the FTL answers with remapping and bad-block retirement), read-retry
// latency tails, and transient chip timeouts. The injector draws every
// decision from its own sim.RNG stream, so a fault scenario is a pure
// function of its seed — two runs with the same seed inject the same
// faults at the same ops regardless of harness worker count.
//
// A nil *Injector (or a zero Config) disables injection entirely; the
// flash device guards every draw behind one pointer check so the
// zero-fault configuration stays byte-identical and allocation-free.
package fault

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Defaults applied by Config.withDefaults when a knob is zero but the
// corresponding probability is set.
const (
	defaultMaxReadRetries = 3
	defaultReadRetryStep  = 40 * sim.Microsecond
	defaultTimeoutStall   = 2 * sim.Millisecond
)

// Config describes a fault model. All probabilities are per-operation;
// zero disables that fault class. The zero Config injects nothing.
type Config struct {
	// ProgramFailProb is the probability a page program reports a
	// program-fail status (the FTL remaps the page and retires the block).
	ProgramFailProb float64
	// EraseFailProb is the probability a block erase reports an
	// erase-fail status (the FTL retires the block).
	EraseFailProb float64
	// ReadRetryProb is the probability a page read needs read-retry
	// rounds; each round adds ReadRetryStep to the cell sense time.
	ReadRetryProb float64
	// MaxReadRetries bounds the retry rounds of one faulted read
	// (uniform in [1, MaxReadRetries]); 0 defaults to 3.
	MaxReadRetries int
	// ReadRetryStep is the extra sense latency per retry round; 0
	// defaults to 40µs.
	ReadRetryStep sim.Time
	// TimeoutProb is the probability an op's chip stalls transiently
	// before its cell phase starts.
	TimeoutProb float64
	// TimeoutStall is the stall duration; 0 defaults to 2ms.
	TimeoutStall sim.Time
	// Seed seeds the injector's private RNG stream. Harnesses that leave
	// it 0 derive it from the experiment seed.
	Seed int64
}

// Enabled reports whether any fault class has a non-zero probability.
func (c Config) Enabled() bool {
	return c.ProgramFailProb > 0 || c.EraseFailProb > 0 ||
		c.ReadRetryProb > 0 || c.TimeoutProb > 0
}

// validate reports configuration errors (probabilities outside [0,1],
// negative timings).
func (c Config) validate() error {
	probs := [...]struct {
		name string
		v    float64
	}{
		{"ProgramFailProb", c.ProgramFailProb},
		{"EraseFailProb", c.EraseFailProb},
		{"ReadRetryProb", c.ReadRetryProb},
		{"TimeoutProb", c.TimeoutProb},
	}
	for _, p := range probs {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("fault: %s = %g out of [0,1]", p.name, p.v)
		}
	}
	if c.MaxReadRetries < 0 {
		return fmt.Errorf("fault: MaxReadRetries = %d", c.MaxReadRetries)
	}
	if c.ReadRetryStep < 0 || c.TimeoutStall < 0 {
		return fmt.Errorf("fault: negative fault timing")
	}
	return nil
}

// withDefaults fills zero-valued timing knobs with the package defaults.
func (c Config) withDefaults() Config {
	if c.MaxReadRetries == 0 {
		c.MaxReadRetries = defaultMaxReadRetries
	}
	if c.ReadRetryStep == 0 {
		c.ReadRetryStep = defaultReadRetryStep
	}
	if c.TimeoutStall == 0 {
		c.TimeoutStall = defaultTimeoutStall
	}
	return c
}

// Light returns the mild fault profile used by the "light" scenario:
// rare program/erase fails and an occasional read-retry tail, roughly a
// healthy drive late in life.
func Light() Config {
	return Config{
		ProgramFailProb: 5e-4,
		EraseFailProb:   5e-4,
		ReadRetryProb:   2e-3,
		TimeoutProb:     1e-4,
	}
}

// Heavy returns the aggressive fault profile used by the "heavy"
// scenario: an order of magnitude more failures, the regime where
// retirement and retry traffic visibly pressure the SLOs.
func Heavy() Config {
	return Config{
		ProgramFailProb: 5e-3,
		EraseFailProb:   5e-3,
		ReadRetryProb:   2e-2,
		TimeoutProb:     1e-3,
	}
}

// ParseSpec parses a -faults flag value: "off" (or empty) disables
// injection; "light" and "heavy" select the built-in profiles; and a
// comma-separated key=value list tunes individual knobs, optionally
// starting from a profile ("light,pfail=1e-3"). Keys: pfail, efail,
// rretry, maxretries, rstep (ns), tmo, stall (ns), seed.
func ParseSpec(spec string) (Config, error) {
	var c Config
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" || spec == "none" {
		return c, nil
	}
	parts := strings.Split(spec, ",")
	for i, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if i == 0 {
			switch part {
			case "light":
				c = Light()
				continue
			case "heavy":
				c = Heavy()
				continue
			}
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Config{}, fmt.Errorf("fault: bad spec token %q (want profile or key=value)", part)
		}
		if err := c.set(key, val); err != nil {
			return Config{}, err
		}
	}
	if err := c.validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// set applies one key=value pair from a spec string.
func (c *Config) set(key, val string) error {
	switch key {
	case "pfail", "efail", "rretry", "tmo":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("fault: %s=%q: %v", key, val, err)
		}
		switch key {
		case "pfail":
			c.ProgramFailProb = f
		case "efail":
			c.EraseFailProb = f
		case "rretry":
			c.ReadRetryProb = f
		case "tmo":
			c.TimeoutProb = f
		}
	case "maxretries", "rstep", "stall", "seed":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("fault: %s=%q: %v", key, val, err)
		}
		switch key {
		case "maxretries":
			c.MaxReadRetries = int(n)
		case "rstep":
			c.ReadRetryStep = sim.Time(n)
		case "stall":
			c.TimeoutStall = sim.Time(n)
		case "seed":
			c.Seed = n
		}
	default:
		return fmt.Errorf("fault: unknown spec key %q", key)
	}
	return nil
}

// Injector draws fault decisions for one device from a private RNG
// stream. It is single-threaded model code like everything else driven
// by the sim engine; build one injector per device/engine.
type Injector struct {
	cfg Config
	rng *sim.RNG
}

// NewInjector builds an injector for cfg (panicking on an invalid
// config — construction happens at setup time). Zero timing knobs take
// the package defaults.
func NewInjector(cfg Config) *Injector {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	return &Injector{cfg: cfg, rng: sim.NewRNG(cfg.Seed)}
}

// ProgramFails decides whether the next page program fails.
func (in *Injector) ProgramFails() bool {
	return in.cfg.ProgramFailProb > 0 && in.rng.Float64() < in.cfg.ProgramFailProb
}

// EraseFails decides whether the next block erase fails.
func (in *Injector) EraseFails() bool {
	return in.cfg.EraseFailProb > 0 && in.rng.Float64() < in.cfg.EraseFailProb
}

// ReadRetries decides how many retry rounds the next page read needs
// (0 for a clean read).
func (in *Injector) ReadRetries() int {
	if in.cfg.ReadRetryProb <= 0 || in.rng.Float64() >= in.cfg.ReadRetryProb {
		return 0
	}
	return 1 + in.rng.Intn(in.cfg.MaxReadRetries)
}

// RetryStep returns the extra sense latency per retry round.
func (in *Injector) RetryStep() sim.Time { return in.cfg.ReadRetryStep }

// ChipStall decides the transient chip-timeout stall for the next op
// (0 for no stall).
func (in *Injector) ChipStall() sim.Time {
	if in.cfg.TimeoutProb <= 0 || in.rng.Float64() >= in.cfg.TimeoutProb {
		return 0
	}
	return in.cfg.TimeoutStall
}
