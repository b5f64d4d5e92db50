package core

import (
	"testing"

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
	ph := NewFleetIO(p, FleetIOConfig{Seed: 1, PlacementHead: true})
	heads := ph.heads()
	if len(heads) != 4 || heads[3] != len(tierLevels) {
		t.Fatalf("placement head layout = %v, want 4th head of width %d", heads, len(tierLevels))
	}
	if ph.TierHint(0) != -1 {
		t.Fatalf("tier hint before any window = %d, want -1", ph.TierHint(0))
	}
}

func TestTierOccStateWidth(t *testing.T) {
	_, p := testPlatform(2)
	p.AddVSSD(vssd.Config{Name: "a", Channels: []int{0, 1}})

	cases := []struct {
		cfg  FleetIOConfig
		want int
	}{
		{FleetIOConfig{Seed: 1}, StatesPerWindow},
		{FleetIOConfig{Seed: 1, TierOccState: true}, StatesPerWindow + 1},
		{FleetIOConfig{Seed: 1, ErrorRateState: true}, statesPerWindowExt},
		{FleetIOConfig{Seed: 1, ErrorRateState: true, TierOccState: true}, statesPerWindowExt + 1},
	}
	for _, tc := range cases {
		f := NewFleetIO(p, tc.cfg)
		if got := f.stateWidth(); got != tc.want {
			t.Errorf("stateWidth(err=%v, tier=%v) = %d, want %d",
				tc.cfg.ErrorRateState, tc.cfg.TierOccState, got, tc.want)
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

	f := NewFleetIO(p, FleetIOConfig{Train: true, Seed: 3, PlacementHead: true, TierOccState: true})
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
	f := NewFleetIO(p, FleetIOConfig{Seed: 1, PlacementHead: true})
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
