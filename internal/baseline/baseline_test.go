package baseline

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/flash"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vssd"
)

func snapBW(id int, bw float64, dur sim.Time) vssd.WindowSnapshot {
	var w metrics.Window
	w.Complete(false, int64(bw*float64(dur)/1e9), 100, 0, 0)
	return vssd.WindowSnapshot{VSSD: id, Duration: dur, Window: w}
}

func TestStaticBaselinesNeverAct(t *testing.T) {
	for _, p := range []interface {
		Name() string
		Decide(sim.Time, []vssd.WindowSnapshot) []vssd.Action
	}{HardwareIsolation(), SoftwareIsolation()} {
		if acts := p.Decide(0, []vssd.WindowSnapshot{{}}); acts != nil {
			t.Fatalf("%s acted", p.Name())
		}
	}
	if HardwareIsolation().Name() != "Hardware Isolation" {
		t.Fatal("name wrong")
	}
	if SoftwareIsolation().Name() != "Software Isolation" {
		t.Fatal("name wrong")
	}
}

func TestConfigureSoftwareIsolation(t *testing.T) {
	eng := sim.NewEngine()
	pc := vssd.DefaultPlatformConfig()
	pc.Flash.Channels = 4
	pc.Flash.ChipsPerChannel = 2
	pc.Flash.BlocksPerChip = 32
	pc.Flash.PagesPerBlock = 8
	p := vssd.NewPlatform(eng, pc)
	all := []int{0, 1, 2, 3}
	p.AddVSSD(vssd.Config{Name: "a", Channels: all, LogicalPages: 512})
	p.AddVSSD(vssd.Config{Name: "b", Channels: all, LogicalPages: 512})
	ConfigureSoftwareIsolation(p, 1.5)
	// Smoke: requests still flow under throttling.
	var done bool
	p.VSSD(0).Submit(&vssd.Request{Write: true, LPN: 0, Pages: 1,
		OnComplete: func(*vssd.Request, sim.Time) { done = true }})
	eng.Run()
	if !done {
		t.Fatal("request did not complete under software isolation")
	}
}

func TestAdaptiveProportionalAllocation(t *testing.T) {
	a := &Adaptive{TotalChannels: 8}
	snaps := []vssd.WindowSnapshot{
		snapBW(0, 300e6, sim.Second), // hungry
		snapBW(1, 100e6, sim.Second), // light
	}
	acts := a.Decide(0, snaps)
	if len(acts) != 2 {
		t.Fatalf("actions = %d", len(acts))
	}
	var n0, n1 int
	seen := map[int]bool{}
	for _, act := range acts {
		if act.Kind != vssd.ActSetChannels {
			t.Fatalf("unexpected action %v", act.Kind)
		}
		for _, c := range act.Channels {
			if seen[c] {
				t.Fatalf("channel %d assigned twice", c)
			}
			seen[c] = true
		}
		if act.VSSD == 0 {
			n0 = len(act.Channels)
		} else {
			n1 = len(act.Channels)
		}
	}
	if n0+n1 != 8 {
		t.Fatalf("partition covers %d channels", n0+n1)
	}
	if n0 <= n1 {
		t.Fatalf("hungry vSSD got %d ≤ light's %d", n0, n1)
	}
	if n1 < 1 {
		t.Fatal("every vSSD keeps at least one channel")
	}
}

func TestAdaptiveIdleSplitsEvenly(t *testing.T) {
	a := &Adaptive{TotalChannels: 8}
	snaps := []vssd.WindowSnapshot{
		{VSSD: 0, Duration: sim.Second},
		{VSSD: 1, Duration: sim.Second},
	}
	acts := a.Decide(0, snaps)
	for _, act := range acts {
		if len(act.Channels) != 4 {
			t.Fatalf("idle split = %d channels", len(act.Channels))
		}
	}
}

func TestAdaptiveDegenerate(t *testing.T) {
	a := &Adaptive{TotalChannels: 1}
	if acts := a.Decide(0, []vssd.WindowSnapshot{{}, {}}); acts != nil {
		t.Fatal("cannot partition 1 channel across 2 vSSDs")
	}
	if acts := a.Decide(0, nil); acts != nil {
		t.Fatal("no snaps, no actions")
	}
}

func TestSSDKeeperPredictsMonotoneDemand(t *testing.T) {
	sk := NewSSDKeeper(16, 64e6, 1)
	low := sk.predict(0.05, 0.2, 0.5)
	high := sk.predict(0.8, 0.2, 0.5)
	if low < 1 || high > 16 {
		t.Fatalf("predictions out of range: %d, %d", low, high)
	}
	if high <= low {
		t.Fatalf("demand not increasing with bandwidth: %d vs %d", low, high)
	}
	// A near-saturating workload should demand most of the device.
	if high < 10 {
		t.Fatalf("80%% load predicted only %d channels", high)
	}
	// A tiny workload should demand few channels.
	if low > 4 {
		t.Fatalf("5%% load predicted %d channels", low)
	}
}

func TestSSDKeeperPartitionsOnceAfterObservation(t *testing.T) {
	sk := NewSSDKeeper(8, 64e6, 2)
	sk.ObserveWindows = 2
	snaps := []vssd.WindowSnapshot{
		snapBW(0, 300e6, sim.Second),
		snapBW(1, 30e6, sim.Second),
	}
	if acts := sk.Decide(0, snaps); acts != nil {
		t.Fatal("acted before observation finished")
	}
	acts := sk.Decide(0, snaps)
	if acts == nil {
		t.Fatal("no partition after observation")
	}
	if !sk.decided {
		t.Fatal("not marked decided")
	}
	total := 0
	var hungry, light int
	for _, a := range acts {
		total += len(a.Channels)
		if a.VSSD == 0 {
			hungry = len(a.Channels)
		} else {
			light = len(a.Channels)
		}
	}
	if total != 8 {
		t.Fatalf("partition covers %d channels", total)
	}
	if hungry <= light {
		t.Fatalf("hungry=%d light=%d", hungry, light)
	}
	// Static afterwards.
	if acts := sk.Decide(0, snaps); acts != nil {
		t.Fatal("SSDKeeper must stay static after deciding")
	}
}

// TestSSDKeeperModelPinned pins the trained demand model bit for bit: a
// checksum over every parameter's float64 bits, plus predict on five
// feature triples, for two seeds — recorded on the per-sample scalar
// training loop NewSSDKeeper ran before it moved onto the batched kernels.
// Figures 10–14 only ever see predict's rounded channel count, which would
// hide a last-bit drift in the weights.
func TestSSDKeeperModelPinned(t *testing.T) {
	triples := [5][3]float64{
		{0.05, 0.9, 0.1}, {0.3, 0.2, 0.95}, {0.5, 0.5, 0.5}, {0.7, 0.05, 0.3}, {0.95, 0.6, 0.8},
	}
	for _, want := range []struct {
		seed     int64
		checksum uint64
		predict  [5]int
	}{
		{seed: 1, checksum: 0x9f313568f056ba90, predict: [5]int{2, 6, 10, 14, 16}},
		{seed: 2, checksum: 0xaeb802768b7ab622, predict: [5]int{1, 6, 10, 14, 16}},
	} {
		s := NewSSDKeeper(16, flash.DefaultConfig().ChannelBandwidth(), want.seed)
		h := fnv.New64a()
		var word [8]byte
		for _, p := range s.net.Params() {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(p))
			h.Write(word[:])
		}
		if got := h.Sum64(); got != want.checksum {
			t.Errorf("seed %d: params checksum %#x, pinned %#x", want.seed, got, want.checksum)
		}
		var got [5]int
		for i, f := range triples {
			got[i] = s.predict(f[0], f[1], f[2])
		}
		if got != want.predict {
			t.Errorf("seed %d: predict = %v, pinned %v", want.seed, got, want.predict)
		}
	}
}
