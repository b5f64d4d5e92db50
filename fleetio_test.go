package fleetio

import (
	"strings"
	"testing"
)

func smallSim() *Simulator {
	cfg := DefaultSimConfig()
	cfg.BlocksPerChip = 32
	cfg.PagesPerBlock = 32
	cfg.DecisionWindow = 200 * Millisecond
	return NewSimulator(cfg)
}

func TestSimulatorQuickstartFlow(t *testing.T) {
	s := smallSim()
	ls := s.AddTenant("ycsb", TenantConfig{
		Workload: "YCSB", Channels: ChannelRange(0, 8), PrefillFrac: 0.4,
		SLO: 2 * Millisecond,
	})
	bi := s.AddTenant("sort", TenantConfig{
		Workload: "TeraSort", Channels: ChannelRange(8, 16), PrefillFrac: 0.4,
	})
	s.UseFleetIO(FleetIOOptions{})
	// The facade deploys the policy the figures measure: agents start
	// with the per-type α of their tenants' workloads.
	for i, w := range []string{"YCSB", "TeraSort"} {
		if got, want := s.fleetio.Alpha(i), ClassifyWorkloads()[w].Alpha; got != want {
			t.Errorf("agent %d (%s) deployed with α=%v, want its type's %v", i, w, got, want)
		}
	}
	rep := s.Run(3 * Second)
	if rep.Elapsed != 3*Second {
		t.Fatalf("elapsed = %v", rep.Elapsed)
	}
	if rep.Utilization <= 0 {
		t.Fatal("zero utilization")
	}
	if ls.Completed() == 0 || bi.Completed() == 0 {
		t.Fatal("tenants idle")
	}
	out := rep.String()
	if !strings.Contains(out, "ycsb") || !strings.Contains(out, "sort") {
		t.Fatalf("report missing tenants:\n%s", out)
	}
	// Run is resumable.
	rep2 := s.Run(1 * Second)
	if rep2.Elapsed != 4*Second {
		t.Fatalf("resumed elapsed = %v", rep2.Elapsed)
	}
}

func TestSimulatorCustomDriver(t *testing.T) {
	s := smallSim()
	tn := s.AddTenant("raw", TenantConfig{Channels: ChannelRange(0, 4)})
	s.UseStatic("none")
	done := 0
	for i := 0; i < 10; i++ {
		tn.Submit(true, i*4, 4, func(Time) { done++ })
	}
	s.Run(100 * Millisecond)
	if done != 10 {
		t.Fatalf("completed %d of 10 custom requests", done)
	}
	tn.Submit(false, 0, 4, nil)
	s.Run(100 * Millisecond)
	if tn.Completed() != 11 {
		t.Fatalf("completed = %d", tn.Completed())
	}
	if tn.P99() <= 0 {
		t.Fatal("no latency recorded")
	}
}

func TestResetMetrics(t *testing.T) {
	s := smallSim()
	tn := s.AddTenant("a", TenantConfig{Workload: "YCSB", Channels: ChannelRange(0, 8)})
	s.UseStatic("none")
	s.Run(500 * Millisecond)
	if tn.Completed() == 0 {
		t.Fatal("no traffic")
	}
	s.ResetMetrics()
	if tn.Completed() != 0 {
		t.Fatal("reset did not clear counters")
	}
}

func TestWorkloadsList(t *testing.T) {
	ws := Workloads()
	if len(ws) != 9 {
		t.Fatalf("workloads = %v", ws)
	}
	found := map[string]bool{}
	for _, w := range ws {
		found[w] = true
	}
	for _, want := range []string{"TeraSort", "YCSB", "VDI-Web"} {
		if !found[want] {
			t.Fatalf("missing %s", want)
		}
	}
}

func TestModelSaveLoad(t *testing.T) {
	m := PretrainedModel()
	if m.Params() < 1000 {
		t.Fatal("model too small")
	}
	path := t.TempDir() + "/m.gob"
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Params() != m.Params() {
		t.Fatal("round trip changed model")
	}
	if _, err := LoadModel(t.TempDir() + "/missing"); err == nil {
		t.Fatal("missing model must error")
	}
}

func TestExperimentFacade(t *testing.T) {
	opt := DefaultExperimentOptions()
	opt.Warmup = 1 * Second
	opt.Duration = 2 * Second
	opt.BlocksPerChip = 32
	mix := NewMix("smoke", "YCSB", "TeraSort")
	rs := CompareExperiment(mix, []Policy{PolicyHardwareIsolation, PolicySoftwareIsolation}, opt)
	if len(rs) != 2 {
		t.Fatalf("results = %d", len(rs))
	}
	if rs[1].AvgUtil <= rs[0].AvgUtil {
		t.Fatal("software must beat hardware on utilization")
	}
	one := RunExperiment(mix, PolicyAdaptive, opt)
	if one.Policy != "Adaptive" || one.AvgUtil <= 0 {
		t.Fatalf("unexpected result %+v", one)
	}
}

func TestHarvestingVisibleInReport(t *testing.T) {
	s := smallSim()
	s.AddTenant("ls", TenantConfig{Workload: "YCSB", Channels: ChannelRange(0, 8), SLO: 2 * Millisecond})
	s.AddTenant("bi", TenantConfig{Workload: "TeraSort", Channels: ChannelRange(8, 16)})
	s.UseFleetIO(FleetIOOptions{Pretrained: PretrainedModel()})
	rep := s.Run(6 * Second)
	rep.SortTenantsByName()
	// With a pretrained policy the BI tenant should be harvesting within a
	// few seconds on most seeds; at minimum the fields must be populated
	// consistently (no negative counts).
	for _, tr := range rep.Tenants {
		if tr.HarvestedChls < 0 || tr.LentChls < 0 {
			t.Fatalf("negative channel counts: %+v", tr)
		}
	}
}
