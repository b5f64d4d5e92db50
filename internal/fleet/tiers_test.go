package fleet

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// tierTestConfig is a small hybrid rack with enough churn and
// oversubscription for tier moves to fire within a short run.
func tierTestConfig(tp TierPolicyKind) Config {
	return Config{
		Seed:        1,
		Duration:    3 * sim.Second,
		Classes:     DefaultTierClasses(2, 6),
		TierPolicy:  tp,
		Lifetime:    1500 * sim.Millisecond,
		Tenants:     25,
		PrefillFrac: -1,
	}
}

func TestWithDefaultsSentinels(t *testing.T) {
	cases := []struct {
		name    string
		prefill float64
		want    float64
	}{
		{"zero picks the default", 0, 0.35},
		{"negative disables", -1, 0},
		{"explicit value sticks", 0.5, 0.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Devices: 8, Duration: sim.Second, PrefillFrac: tc.prefill}.withDefaults()
			if cfg.PrefillFrac != tc.want {
				t.Errorf("PrefillFrac = %v, want %v", cfg.PrefillFrac, tc.want)
			}
		})
	}
}

func TestColdFleetRuns(t *testing.T) {
	cfg := testConfig()
	cfg.PrefillFrac = -1
	st := New(cfg).Run()
	if st.Placed == 0 || st.Completed == 0 {
		t.Errorf("cold fleet did no work: placed=%d completed=%d", st.Placed, st.Completed)
	}
}

func TestTierClassResolution(t *testing.T) {
	f := New(Config{Duration: sim.Second, Classes: DefaultTierClasses(2, 6)})
	if got := f.Config().Devices; got != 8 {
		t.Fatalf("Devices = %d, want class sum 8", got)
	}
	if got := f.Config().Flash.BlocksPerChip; got != 16 {
		t.Errorf("resolved Flash has %d blocks/chip, want class 0's 16", got)
	}
	if f.lsSLO != 2*sim.Millisecond {
		t.Errorf("latency-class SLO = %v, want 2ms", f.lsSLO)
	}
	for dev, want := range map[int][2]int{1: {0, 16}, 7: {1, 64}} {
		sh := f.Shards()[dev]
		if sh.tier != want[0] || sh.Platform().FlashConfig().BlocksPerChip != want[1] {
			t.Errorf("device %d: tier=%d blocks=%d, want tier %d with %d blocks",
				dev, sh.tier, sh.Platform().FlashConfig().BlocksPerChip, want[0], want[1])
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("Devices/class-sum mismatch did not panic")
		}
	}()
	Config{Devices: 5, Duration: sim.Second, Classes: DefaultTierClasses(2, 6)}.withDefaults()
}

// TestOneClassRackIsHomogeneous: Flash+Devices is shorthand for a
// one-class list, so spelling the list out — with or without a matching
// Devices, under any tier policy — must change nothing: same bytes, an
// inert tier control plane, no agent stacks and no fleetio_tier_* series.
func TestOneClassRackIsHomogeneous(t *testing.T) {
	run := func(mut func(*Config)) (string, *Fleet, *obs.Registry) {
		cfg := cohortConfig()
		cfg.Obs = obs.NewRegistry()
		mut(&cfg)
		f := New(cfg)
		return render(f.Run()), f, cfg.Obs
	}
	want, _, _ := run(func(*Config) {})
	oneClass := []DeviceClass{{Flash: defaultDeviceConfig(), Devices: 4}}
	cases := map[string]func(*Config){
		"classes only":          func(c *Config) { c.Devices, c.Classes = 0, oneClass },
		"classes and devices":   func(c *Config) { c.Classes = oneClass },
		"default geometry":      func(c *Config) { c.Classes = []DeviceClass{{Devices: 4}} },
		"watermark, one class":  func(c *Config) { c.Classes, c.TierPolicy = oneClass, TierWatermark },
		"learned, one class":    func(c *Config) { c.Classes, c.TierPolicy = oneClass, TierLearned },
		"learned, flash+device": func(c *Config) { c.TierPolicy = TierLearned },
	}
	for name, mut := range cases {
		t.Run(name, func(t *testing.T) {
			got, f, reg := run(mut)
			if got != want {
				t.Errorf("diverged from the Flash+Devices rack:\n%s\nvs\n%s", got, want)
			}
			if len(f.Config().Classes) != 1 || f.Config().Devices != 4 {
				t.Errorf("resolved to %d classes, %d devices; want 1, 4", len(f.Config().Classes), f.Config().Devices)
			}
			if f.lsSLO != 0 || f.Shards()[0].fio != nil || f.led.PromotesStarted+f.led.DemotesStarted != 0 {
				t.Errorf("tier control plane not inert: slo=%v fio=%v moves=%d",
					f.lsSLO, f.Shards()[0].fio != nil, f.led.PromotesStarted+f.led.DemotesStarted)
			}
			for _, n := range metricNames(t, reg) {
				if strings.HasPrefix(n, "fleetio_tier_") {
					t.Errorf("one-class rack registered %s", n)
				}
			}
		})
	}
}

func TestTierClassSliceNotMutated(t *testing.T) {
	classes := []DeviceClass{{Devices: 1}, {Devices: 2}}
	Config{Duration: sim.Second, Classes: classes}.withDefaults()
	if classes[0].Name != "" || classes[0].Flash.Channels != 0 {
		t.Errorf("withDefaults mutated the caller's class slice: %+v", classes[0])
	}
}

func TestTierStaticPinPlacement(t *testing.T) {
	// Plenty of room in both tiers: every latency-class tenant must land
	// in the fast tier, every bandwidth-class tenant in the dense tier.
	cfg := tierTestConfig(TierStatic)
	cfg.Lifetime = 0
	cfg.Tenants = 4 // fast tier: 2 dev × 2 slots; dense: 12 slots
	f := New(cfg)
	f.Run()
	_, fh := f.fastRange()
	for _, tn := range f.Tenants() {
		if tn.State != StateRunning {
			continue
		}
		fast := tn.Device < fh
		if lat := tn.prof.Class == workload.Latency; lat != fast {
			t.Errorf("tenant %d (%s, latency=%v) on device %d (fast=%v)",
				tn.ID, tn.Workload, lat, tn.Device, fast)
		}
	}
}

func TestTierPoliciesMoveAndBalance(t *testing.T) {
	for _, tp := range []TierPolicyKind{TierWatermark, TierLearned} {
		t.Run(tp.String(), func(t *testing.T) {
			st := New(tierTestConfig(tp)).Run()
			if !st.Balanced() {
				t.Errorf("ledger imbalance: %+v", st)
			}
			if st.PromotesStarted+st.DemotesStarted == 0 {
				t.Errorf("%s started no tier moves", tp)
			}
			if st.Promotes+st.Demotes > 0 && st.CrossTierBytes == 0 {
				t.Errorf("completed tier moves but CrossTierBytes = 0")
			}
			if got := st.PromotesStarted + st.DemotesStarted; got > st.MigrationsStarted {
				t.Errorf("tier moves %d exceed migrations %d", got, st.MigrationsStarted)
			}
		})
	}
}

func TestTierStatsRendered(t *testing.T) {
	st := New(tierTestConfig(TierWatermark)).Run()
	var b strings.Builder
	st.Render(&b)
	out := b.String()
	for _, want := range []string{"tiers:", "fast[", "dense[", "promotes=", "taillat:"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered stats missing %q:\n%s", want, out)
		}
	}
}

func TestTierParseAndStrings(t *testing.T) {
	for _, tp := range TierPolicies() {
		got, err := ParseTierPolicy(tp.String())
		if err != nil || got != tp {
			t.Errorf("ParseTierPolicy(%q) = %v, %v", tp.String(), got, err)
		}
	}
	if _, err := ParseTierPolicy("nope"); err == nil {
		t.Error("ParseTierPolicy accepted garbage")
	}
}
