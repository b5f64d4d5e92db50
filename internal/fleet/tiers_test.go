package fleet

import (
	"strings"
	"testing"

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
		name        string
		maxMig      int
		prefill     float64
		wantMax     int
		wantPrefill float64
	}{
		{"zero picks defaults", 0, 0, 2, 0.35}, // 8 devices → 8/8+1
		{"negative disables", -1, -1, 0, 0},
		{"explicit values stick", 3, 0.5, 3, 0.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Devices: 8, Duration: sim.Second,
				MaxMigrations: tc.maxMig, PrefillFrac: tc.prefill}.withDefaults()
			if cfg.MaxMigrations != tc.wantMax {
				t.Errorf("MaxMigrations = %d, want %d", cfg.MaxMigrations, tc.wantMax)
			}
			if cfg.PrefillFrac != tc.wantPrefill {
				t.Errorf("PrefillFrac = %v, want %v", cfg.PrefillFrac, tc.wantPrefill)
			}
		})
	}
}

func TestMigrationFreeFleet(t *testing.T) {
	cfg := testConfig()
	cfg.MaxMigrations = -1 // Migration stays on, but no move may ever start
	st := New(cfg).Run()
	if st.MigrationsStarted != 0 {
		t.Errorf("MaxMigrations=-1 started %d migrations", st.MigrationsStarted)
	}
	if !st.Balanced() {
		t.Errorf("ledger imbalance: %+v", st)
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
	cfg := Config{Duration: sim.Second, Classes: DefaultTierClasses(2, 6)}.withDefaults()
	if cfg.Devices != 8 {
		t.Fatalf("Devices = %d, want class sum 8", cfg.Devices)
	}
	if cfg.TierLowWater != 0.60 || cfg.TierHighWater != 0.95 {
		t.Errorf("watermarks = %v/%v, want 0.60/0.95", cfg.TierLowWater, cfg.TierHighWater)
	}
	if cfg.TierSLO != 2*sim.Millisecond {
		t.Errorf("TierSLO = %v, want 2ms", cfg.TierSLO)
	}
	fc, tier := cfg.shardClass(1)
	if tier != 0 || fc.BlocksPerChip != 16 {
		t.Errorf("device 1: tier=%d blocks=%d, want fast tier 0 with 16 blocks", tier, fc.BlocksPerChip)
	}
	fc, tier = cfg.shardClass(7)
	if tier != 1 || fc.BlocksPerChip != 64 {
		t.Errorf("device 7: tier=%d blocks=%d, want dense tier 1 with 64 blocks", tier, fc.BlocksPerChip)
	}

	defer func() {
		if recover() == nil {
			t.Error("Devices/class-sum mismatch did not panic")
		}
	}()
	Config{Devices: 5, Duration: sim.Second, Classes: DefaultTierClasses(2, 6)}.withDefaults()
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
		if lat := tn.class == workload.Latency; lat != fast {
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
