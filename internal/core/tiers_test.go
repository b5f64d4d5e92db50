package core

import (
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vssd"
	"repro/internal/workload"
)

func TestTierHeadRoundTrip(t *testing.T) {
	for h, tier := range tierLevels {
		if got := tierFromHead(h); got != tier {
			t.Errorf("head %d decoded to tier %d, want %d", h, got, tier)
		}
	}
	if tierFromHead(0) != TierFast || tierFromHead(1) != TierDense {
		t.Error("head 0 must be the fast tier and head 1 the dense one")
	}
	for _, bad := range []int{-1, len(tierLevels)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TierFromHead(%d) did not panic", bad)
				}
			}()
			tierFromHead(bad)
		}()
	}
}

func TestPlacementHeadLayout(t *testing.T) {
	_, p := testPlatform(2)
	p.AddVSSD(vssd.Config{Name: "a", Channels: []int{0, 1}})

	base := NewFleetIO(p, FleetIOConfig{Seed: 1})
	if got := len(base.heads()); got != 3 {
		t.Fatalf("base head count = %d, want 3", got)
	}
	ph := NewFleetIO(p, FleetIOConfig{Seed: 1, Tiered: true})
	heads := ph.heads()
	if len(heads) != 4 || heads[3] != len(tierLevels) {
		t.Fatalf("placement head layout = %v, want 4th head of width %d", heads, len(tierLevels))
	}
	if ph.TierHint(0) != -1 {
		t.Fatalf("tier hint before any window = %d, want -1", ph.TierHint(0))
	}
}

// TestTierOccStateWidth: each optional feature widens the window state by
// one, appended after the 11 base features in a fixed order — the
// error-rate feature (write retries per completed request, clamped to
// [0, 1]) first, then the fast-tier occupancy.
func TestTierOccStateWidth(t *testing.T) {
	_, p := testPlatform(2)
	p.AddVSSD(vssd.Config{Name: "a", Channels: []int{0, 1}})

	cases := []struct {
		cfg  FleetIOConfig
		win  metrics.Window
		want int
		tail []float64 // the features after the base ones
	}{
		{FleetIOConfig{Seed: 1}, metrics.Window{Writes: 8, Retries: 2}, StatesPerWindow, nil},
		{FleetIOConfig{Seed: 1, Tiered: true}, metrics.Window{Writes: 8, Retries: 2}, StatesPerWindow + 1, []float64{0.4}},
		{FleetIOConfig{Seed: 1, ErrorRateState: true}, metrics.Window{Writes: 8, Retries: 2}, StatesPerWindow + 1, []float64{0.25}},
		{FleetIOConfig{Seed: 1, ErrorRateState: true}, metrics.Window{}, StatesPerWindow + 1, []float64{0}},
		{FleetIOConfig{Seed: 1, ErrorRateState: true}, metrics.Window{Retries: 3}, StatesPerWindow + 1, []float64{1}},
		{FleetIOConfig{Seed: 1, ErrorRateState: true}, metrics.Window{Reads: 4, Writes: 4, Retries: 24}, StatesPerWindow + 1, []float64{1}},
		{FleetIOConfig{Seed: 1, ErrorRateState: true, Tiered: true}, metrics.Window{Reads: 2, Writes: 2, Retries: 1}, StatesPerWindow + 2, []float64{0.25, 0.4}},
	}
	for _, tc := range cases {
		f := NewFleetIO(p, tc.cfg)
		if got := f.stateWidth(); got != tc.want {
			t.Errorf("stateWidth(err=%v, tier=%v) = %d, want %d",
				tc.cfg.ErrorRateState, tc.cfg.Tiered, got, tc.want)
		}
		f.SetTierOcc(0, 0.4)
		a := f.agents[0]
		snap := vssd.WindowSnapshot{Duration: 100 * sim.Millisecond, Window: tc.win}
		state := f.closeWindow(a, snap, 0, 0, 0)
		last := state[len(state)-tc.want:]
		if !slices.Equal(last[:StatesPerWindow], encodeWindow(snap, a.scales, 0, 0)) {
			t.Errorf("err=%v tier=%v: base features moved: %v", tc.cfg.ErrorRateState, tc.cfg.Tiered, last)
		}
		if got := last[StatesPerWindow:]; !slices.Equal(got, tc.tail) {
			t.Errorf("err=%v tier=%v window %+v: optional features = %v, want %v",
				tc.cfg.ErrorRateState, tc.cfg.Tiered, tc.win, got, tc.tail)
		}
	}
}

// The placement head must actually produce hints, and SetTierOcc must be
// observable, once decision windows run.
func TestPlacementHeadEmitsHints(t *testing.T) {
	eng, p := testPlatform(4)
	v := p.AddVSSD(vssd.Config{Name: "ls", Channels: []int{0, 1, 2, 3}})
	g := workload.NewGenerator(eng, v, workload.ByName("YCSB"), sim.NewRNG(2))
	g.Start()

	f := NewFleetIO(p, FleetIOConfig{Train: true, Seed: 3, Tiered: true})
	f.SetTierOcc(0, 0.5)
	r := &Runner{Plat: p, Policy: f, Window: 100 * sim.Millisecond}
	r.Start()
	eng.RunUntil(2 * sim.Second)

	hint := f.TierHint(0)
	if hint != TierFast && hint != TierDense {
		t.Fatalf("tier hint after 2s of windows = %d, want a TierLevels value", hint)
	}
	if f.agents[0].tierOcc != 0.5 {
		t.Fatalf("tierOcc = %v, want the pushed 0.5", f.agents[0].tierOcc)
	}
}

// SyncAgents must pick up vSSDs added after construction, with hints
// defaulting to -1 (the "no sample yet" sentinel the fleet reads).
func TestSyncAgentsAppends(t *testing.T) {
	_, p := testPlatform(4)
	p.AddVSSD(vssd.Config{Name: "a", Channels: []int{0, 1}})
	f := NewFleetIO(p, FleetIOConfig{Seed: 1, Tiered: true})
	if len(f.agents) != 1 {
		t.Fatalf("agents = %d, want 1", len(f.agents))
	}
	p.AddVSSD(vssd.Config{Name: "b", Channels: []int{2, 3}})
	f.SyncAgents()
	if len(f.agents) != 2 {
		t.Fatalf("agents after sync = %d, want 2", len(f.agents))
	}
	if f.TierHint(1) != -1 {
		t.Fatalf("new agent's hint = %d, want -1", f.TierHint(1))
	}
}
