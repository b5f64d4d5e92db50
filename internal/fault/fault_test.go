package fault

import (
	"testing"

	"repro/internal/sim"
)

// TestInjectorDeterministic pins the seed contract: two injectors with
// the same config produce the same decision sequence, and a different
// seed produces a different one.
func TestInjectorDeterministic(t *testing.T) {
	cfg := Heavy()
	cfg.Seed = 42
	type draw struct {
		p, e  bool
		r     int
		stall sim.Time
	}
	run := func(c Config) []draw {
		in := NewInjector(c)
		out := make([]draw, 0, 256)
		for i := 0; i < 256; i++ {
			out = append(out, draw{in.ProgramFails(), in.EraseFails(), in.ReadRetries(), in.ChipStall()})
		}
		return out
	}
	a, b := run(cfg), run(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between same-seed injectors: %+v vs %+v", i, a[i], b[i])
		}
	}
	other := cfg
	other.Seed = 43
	c := run(other)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical decision sequences")
	}
}

// TestInjectorRates sanity-checks that observed fault frequencies track
// the configured probabilities over a long sequence.
func TestInjectorRates(t *testing.T) {
	cfg := Config{ProgramFailProb: 0.1, ReadRetryProb: 0.2, Seed: 7}
	in := NewInjector(cfg)
	const n = 100_000
	fails, retries := 0, 0
	for i := 0; i < n; i++ {
		if in.ProgramFails() {
			fails++
		}
		if in.ReadRetries() > 0 {
			retries++
		}
	}
	if got := float64(fails) / n; got < 0.08 || got > 0.12 {
		t.Fatalf("program-fail rate %.4f, want ~0.1", got)
	}
	if got := float64(retries) / n; got < 0.17 || got > 0.23 {
		t.Fatalf("read-retry rate %.4f, want ~0.2", got)
	}
}

// TestInjectorDisabledClasses: zero-probability classes never fire and
// draw nothing from the stream (so enabling one class does not perturb
// another's sequence).
func TestInjectorDisabledClasses(t *testing.T) {
	in := NewInjector(Config{ProgramFailProb: 0.5, Seed: 1})
	for i := 0; i < 1000; i++ {
		if in.EraseFails() || in.ReadRetries() != 0 || in.ChipStall() != 0 {
			t.Fatal("disabled fault class fired")
		}
	}
}

// TestInjectorDefaults: zero timing knobs take the package defaults.
func TestInjectorDefaults(t *testing.T) {
	in := NewInjector(Config{ReadRetryProb: 1, TimeoutProb: 1, Seed: 1})
	cfg := in.cfg
	if cfg.MaxReadRetries != defaultMaxReadRetries || cfg.ReadRetryStep != defaultReadRetryStep || cfg.TimeoutStall != defaultTimeoutStall {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if r := in.ReadRetries(); r < 1 || r > defaultMaxReadRetries {
		t.Fatalf("retry rounds %d out of [1,%d]", r, defaultMaxReadRetries)
	}
	if in.ChipStall() != defaultTimeoutStall {
		t.Fatal("ChipStall must return the default stall when TimeoutProb=1")
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec    string
		want    Config
		enabled bool
	}{
		{"", Config{}, false},
		{"off", Config{}, false},
		{"none", Config{}, false},
		{"light", Light(), true},
		{"heavy", Heavy(), true},
		{"pfail=0.01", Config{ProgramFailProb: 0.01}, true},
		{"pfail=0.01,efail=0.02,rretry=0.03,tmo=0.04",
			Config{ProgramFailProb: 0.01, EraseFailProb: 0.02, ReadRetryProb: 0.03, TimeoutProb: 0.04}, true},
		{"light,pfail=1e-3", func() Config { c := Light(); c.ProgramFailProb = 1e-3; return c }(), true},
		{"maxretries=5,rstep=1000,stall=2000,seed=9",
			Config{MaxReadRetries: 5, ReadRetryStep: 1000, TimeoutStall: 2000, Seed: 9}, false},
	}
	for _, tc := range cases {
		got, err := ParseSpec(tc.spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tc.spec, err)
		}
		if got != tc.want {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
		if got.Enabled() != tc.enabled {
			t.Fatalf("ParseSpec(%q).Enabled() = %v, want %v", tc.spec, got.Enabled(), tc.enabled)
		}
	}
	for _, bad := range []string{"bogus", "pfail", "pfail=x", "pfail=2", "seed=x", "what=1", "light,heavy"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) must fail", bad)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	bad := []Config{
		{ProgramFailProb: -0.1},
		{EraseFailProb: 1.5},
		{MaxReadRetries: -1},
		{ReadRetryStep: -1},
		{TimeoutStall: -1},
	}
	for _, c := range bad {
		if c.validate() == nil {
			t.Fatalf("config %+v must be invalid", c)
		}
	}
}
