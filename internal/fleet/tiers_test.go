package fleet

import (
	"slices"
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
		Devices:     8,
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

// TestTierClassResolution: a tier policy splits the rack into a fast tier
// on the first max(Devices/4, 1) devices and a dense tier on the rest, each
// with its own geometry derived from Config.Flash (which stays the rack
// geometry), and both geometries valid devices.
func TestTierClassResolution(t *testing.T) {
	for devices, fast := range map[int]int{2: 1, 5: 1, 8: 2, 64: 16} {
		f := New(Config{Devices: devices, Duration: sim.Second, TierPolicy: TierStatic})
		if _, hi := f.fastRange(); hi != fast {
			t.Errorf("%d devices: fast tier ends at %d, want %d", devices, hi, fast)
		}
		if got := f.Config().Flash; got != defaultDeviceConfig() {
			t.Errorf("%d devices: resolved Flash = %+v, want the rack geometry", devices, got)
		}
		if f.lsSLO != 2*sim.Millisecond {
			t.Errorf("%d devices: latency-class SLO = %v, want 2ms", devices, f.lsSLO)
		}
		for id, sh := range f.Shards() {
			fc := sh.Platform().FlashConfig()
			wantTier, wantBlocks, wantRead := 0, 16, 25*sim.Microsecond
			if id >= fast {
				wantTier, wantBlocks, wantRead = 1, 64, 140*sim.Microsecond
			}
			if sh.tier != wantTier || fc.BlocksPerChip != wantBlocks || fc.ReadPage != wantRead {
				t.Errorf("%d devices: device %d is tier %d with %d blocks/chip and %v reads, want tier %d with %d and %v",
					devices, id, sh.tier, fc.BlocksPerChip, fc.ReadPage, wantTier, wantBlocks, wantRead)
			}
			if err := fc.Validate(); err != nil {
				t.Errorf("%d devices: device %d geometry: %v", devices, id, err)
			}
		}
	}
}

// TestRackNeedsDevices: a rack needs a device, under any tier policy.
func TestRackNeedsDevices(t *testing.T) {
	for _, cfg := range []Config{
		{Devices: 0},
		{Devices: 0, TierPolicy: TierStatic},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Devices=%d under %v did not panic", cfg.Devices, cfg.TierPolicy)
				}
			}()
			cfg.Duration = sim.Second
			cfg.withDefaults()
		}()
	}
	Config{Devices: 2, Duration: sim.Second, TierPolicy: TierLearned}.withDefaults()
	Config{Devices: 1, Duration: sim.Second}.withDefaults()
}

// TestOneClassRackIsHomogeneous: a rack is one class, with an inert tier
// control plane, exactly when it has no tier policy. Without one, a rack of
// any geometry runs every device on Config.Flash with no latency-class SLO,
// no agent stacks, no tier moves, no tier rows and no fleetio_tier_* series,
// and spelling out the default geometry changes no byte. A tier policy never
// leaves a one-class rack: it is refused on one device, and it splits a
// Flash+Devices rack into a fast and a dense tier.
func TestOneClassRackIsHomogeneous(t *testing.T) {
	run := func(mut func(*Config)) (string, Stats, *Fleet, *obs.Registry) {
		cfg := cohortConfig()
		cfg.Obs = obs.NewRegistry()
		mut(&cfg)
		f := New(cfg)
		st := f.Run()
		return render(st), st, f, cfg.Obs
	}
	want, _, _, _ := run(func(*Config) {})
	homogeneous := map[string]struct {
		mut  func(*Config)
		same bool // the same rack as cohortConfig's, byte for byte
	}{
		"default geometry": {func(c *Config) { c.Flash = defaultDeviceConfig() }, true},
		// One tier's geometry on every device, with and without a
		// device count of its own: still one class.
		"classes only":        {func(c *Config) { c.Flash = tierFlash(defaultDeviceConfig(), 1) }, false},
		"classes and devices": {func(c *Config) { c.Flash, c.Devices = tierFlash(defaultDeviceConfig(), 0), 8 }, false},
	}
	for name, c := range homogeneous {
		t.Run(name, func(t *testing.T) {
			got, st, f, reg := run(c.mut)
			if c.same && got != want {
				t.Errorf("diverged from the default-geometry rack:\n%s\nvs\n%s", got, want)
			}
			for id, sh := range f.Shards() {
				if sh.fio != nil || sh.tier != 0 || sh.Platform().FlashConfig() != f.Config().Flash {
					t.Errorf("device %d: tier %d, agents=%v, geometry %+v on a rack of %+v",
						id, sh.tier, sh.fio != nil, sh.Platform().FlashConfig(), f.Config().Flash)
				}
			}
			if f.lsSLO != 0 || st.PromotesStarted+st.DemotesStarted != 0 || len(st.Tiers) != 0 {
				t.Errorf("tier control plane not inert: slo=%v moves=%d tier rows=%d",
					f.lsSLO, st.PromotesStarted+st.DemotesStarted, len(st.Tiers))
			}
			for _, n := range metricNames(t, reg) {
				if strings.HasPrefix(n, "fleetio_tier_") {
					t.Errorf("homogeneous rack registered %s", n)
				}
			}
		})
	}

	for name, tp := range map[string]TierPolicyKind{"watermark, one class": TierWatermark, "learned, one class": TierLearned} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("a one-device rack under %v did not panic", tp)
				}
			}()
			cfg := cohortConfig()
			cfg.Devices, cfg.TierPolicy = 1, tp
			New(cfg)
		})
	}

	t.Run("learned, flash+device", func(t *testing.T) {
		cfg := cohortConfig()
		cfg.TierPolicy = TierLearned
		f := New(cfg)
		if f.lsSLO != tierSLO {
			t.Errorf("latency-class SLO = %v, want %v", f.lsSLO, tierSLO)
		}
		for id, sh := range f.Shards() {
			wantTier := min(id, 1) // 4 devices: one fast, three dense
			if sh.tier != wantTier || sh.fio == nil ||
				sh.Platform().FlashConfig() != tierFlash(f.Config().Flash, wantTier) {
				t.Errorf("device %d: tier %d, agents=%v; want tier %d with agents on its tier geometry",
					id, sh.tier, sh.fio != nil, wantTier)
			}
		}
	})
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
		if tn.state != stateRunning {
			continue
		}
		fast := tn.device < fh
		if lat := tn.prof.Class == workload.Latency; lat != fast {
			t.Errorf("tenant %d (%s, latency=%v) on device %d (fast=%v)",
				tn.id, tn.Workload, lat, tn.device, fast)
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

// TestLostMigrationUnbalancesLedger: the in-flight counts are read off the
// live migrations, so a tier move lost from them mid-run leaves both
// migration clauses of the ledger open.
func TestLostMigrationUnbalancesLedger(t *testing.T) {
	f := New(tierTestConfig(TierWatermark))
	f.start()
	defer f.stopWorkers()
	lost := false
	for f.now < f.cfg.Duration {
		f.step()
		if i := slices.IndexFunc(f.migs, func(m *migration) bool { return m.tierMove != 0 }); i >= 0 && !lost {
			f.migs = slices.Delete(f.migs, i, i+1)
			lost = true
		}
	}
	if !lost {
		t.Fatal("no tier move was ever in flight")
	}
	st := f.collect()
	if st.MigrationsStarted == st.MigrationsCompleted+st.MigrationsInFlight ||
		st.PromotesStarted+st.DemotesStarted == st.Promotes+st.Demotes+st.TierMovesInFlight || st.Balanced() {
		t.Errorf("a lost tier move left the ledger closed: %+v", st)
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
	for _, bad := range []string{"nope", "", TierNone.String()} {
		if _, err := ParseTierPolicy(bad); err == nil {
			t.Errorf("ParseTierPolicy accepted %q", bad)
		}
	}
	if slices.Contains(TierPolicies(), TierNone) {
		t.Error("TierPolicies lists TierNone, which is not a flag value")
	}
}
