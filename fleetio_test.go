package fleetio

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/harness"
)

func smallOptions() ExperimentOptions {
	opt := DefaultExperimentOptions()
	opt.BlocksPerChip = 32
	opt.Window = 200 * Millisecond
	return opt
}

func TestSimulatorQuickstartFlow(t *testing.T) {
	s := NewSimulator(smallOptions())
	ls := s.AddTenant(TenantSpec{
		Workload: "YCSB", Channels: ChannelRange(0, 8), PrefillFrac: 0.4,
		SLO: 2 * Millisecond,
	})
	bi := s.AddTenant(TenantSpec{
		Workload: "TeraSort", Channels: ChannelRange(8, 16), PrefillFrac: 0.4,
	})
	s.Use(PolicyFleetIO)
	rep := s.Run(3 * Second)
	if rep.Elapsed != 3*Second {
		t.Fatalf("elapsed = %v", rep.Elapsed)
	}
	if rep.AvgUtil <= 0 || rep.P95Util <= 0 {
		t.Fatalf("zero utilization: avg %v p95 %v", rep.AvgUtil, rep.P95Util)
	}
	if rep.Policy != "FleetIO" {
		t.Fatalf("policy = %q", rep.Policy)
	}
	if rep.Tenants[ls].Completed == 0 || rep.Tenants[bi].Completed == 0 {
		t.Fatal("tenants idle")
	}
	out := rep.String()
	if !strings.Contains(out, "YCSB") || !strings.Contains(out, "TeraSort") {
		t.Fatalf("report missing tenants:\n%s", out)
	}
	// Run is resumable.
	rep2 := s.Run(1 * Second)
	if rep2.Elapsed != 4*Second {
		t.Fatalf("resumed elapsed = %v", rep2.Elapsed)
	}
}

// TestSimulatorMatchesMeasure pins that there is one single-device wiring:
// a Simulator given the isolated topology's two tenants, with FleetIO
// deployed and driven warm-up → ResetMetrics → measured interval, reports
// exactly the Result harness.Measure returns for the same options.
func TestSimulatorMatchesMeasure(t *testing.T) {
	opt := smallOptions()
	opt.Warmup = 1 * Second
	opt.Duration = 2 * Second
	slos := []Time{2 * Millisecond, 0}
	want := harness.Measure(harness.Pair("YCSB", "TeraSort"), harness.PolFleetIO, slos, opt).Result

	s := NewSimulator(opt)
	for i, w := range []string{"YCSB", "TeraSort"} {
		s.AddTenant(TenantSpec{
			Workload: w, Channels: ChannelRange(i*8, (i+1)*8),
			SLO: slos[i], PrefillFrac: opt.PrefillFrac,
		})
	}
	s.Use(PolicyFleetIO)
	s.Run(opt.Warmup)
	s.ResetMetrics()
	got := s.Run(opt.Duration)
	if g, w := fmt.Sprintf("%+v", got.Result), fmt.Sprintf("%+v", want); g != w {
		t.Fatalf("Simulator and harness.Measure diverge:\n got %s\nwant %s", g, w)
	}
	if got.P95Util <= 0 {
		t.Fatalf("no P95 utilization in %+v", got.Result)
	}
}

// TestSimulatorRejectsLateTenant: a tenant added after Run used to get a
// generator that never started (0 MB/s, 0 completions) or, under FleetIO,
// crash the next decision window with more snapshots than agents. The
// policy's agents are fixed when it attaches, so AddTenant panics instead.
func TestSimulatorRejectsLateTenant(t *testing.T) {
	for _, use := range []bool{false, true} {
		s := NewSimulator(smallOptions())
		s.AddTenant(TenantSpec{Workload: "YCSB", Channels: ChannelRange(0, 8)})
		if use {
			s.Use(PolicyFleetIO)
		}
		s.Run(200 * Millisecond)
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "after AttachPolicy or Start") {
					t.Errorf("Use=%v: AddTenant after Run panicked with %q, want the call order named", use, msg)
				}
			}()
			s.AddTenant(TenantSpec{Workload: "TeraSort", Channels: ChannelRange(8, 16)})
		}()
	}
}

// TestSimulatorRejectsLatePolicy: Use after Run used to relabel the report
// while the policy the first Run started kept deciding. It panics instead.
func TestSimulatorRejectsLatePolicy(t *testing.T) {
	s := NewSimulator(smallOptions())
	s.AddTenant(TenantSpec{Workload: "YCSB", Channels: ChannelRange(0, 8)})
	s.Run(200 * Millisecond)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "after Start") {
			t.Errorf("Use after Run panicked with %q, want the call order named", msg)
		}
	}()
	s.Use(PolicyFleetIO)
}

func TestResetMetrics(t *testing.T) {
	s := NewSimulator(smallOptions())
	tn := s.AddTenant(TenantSpec{Workload: "YCSB", Channels: ChannelRange(0, 8)})
	if s.Run(500 * Millisecond).Tenants[tn].Completed == 0 {
		t.Fatal("no traffic")
	}
	s.ResetMetrics()
	if rep := s.Report(); rep.Tenants[tn].Completed != 0 || rep.Elapsed != 0 {
		t.Fatalf("reset did not clear counters: %+v", rep)
	}
}

// TestReportOverEmptyInterval: before the first Run, and right after
// ResetMetrics, nothing has been measured, so a tenant's bandwidth reads 0,
// not NaN, in the Result and in the printed table.
func TestReportOverEmptyInterval(t *testing.T) {
	s := NewSimulator(smallOptions())
	tn := s.AddTenant(TenantSpec{Workload: "YCSB", Channels: ChannelRange(0, 8)})
	check := func(when string) {
		rep := s.Report()
		if bw := rep.Tenants[tn].BandwidthMBps; bw != 0 {
			t.Errorf("%s: BandwidthMBps = %v over an empty interval, want 0", when, bw)
		}
		if out := rep.String(); strings.Contains(out, "NaN") {
			t.Errorf("%s: report prints NaN:\n%s", when, out)
		}
	}
	check("before Run")
	s.Run(500 * Millisecond)
	s.ResetMetrics()
	check("after ResetMetrics")
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
	rs := CompareExperiment(mix, []Policy{PolicyHardwareIsolation, PolicySoftwareIsolation, PolicyAdaptive}, opt)
	if len(rs) != 3 {
		t.Fatalf("results = %d", len(rs))
	}
	if rs[1].AvgUtil <= rs[0].AvgUtil {
		t.Fatal("software must beat hardware on utilization")
	}
	if one := rs[2]; one.Policy != "Adaptive" || one.AvgUtil <= 0 {
		t.Fatalf("unexpected result %+v", one)
	}
}

func TestHarvestingVisibleInReport(t *testing.T) {
	s := NewSimulator(WithPretrainedOptions(smallOptions()))
	s.AddTenant(TenantSpec{Workload: "YCSB", Channels: ChannelRange(0, 8), SLO: 2 * Millisecond})
	s.AddTenant(TenantSpec{Workload: "TeraSort", Channels: ChannelRange(8, 16)})
	s.Use(PolicyFleetIO)
	rep := s.Run(6 * Second)
	// With a pretrained policy the BI tenant should be harvesting within a
	// few seconds on most seeds; at minimum the fields must be populated
	// consistently (one non-negative count per tenant).
	if len(rep.HarvestedChls) != 2 || len(rep.LentChls) != 2 {
		t.Fatalf("channel counts = %v / %v, want one per tenant", rep.HarvestedChls, rep.LentChls)
	}
	for i := range rep.Tenants {
		if rep.HarvestedChls[i] < 0 || rep.LentChls[i] < 0 {
			t.Fatalf("negative channel counts: %v / %v", rep.HarvestedChls, rep.LentChls)
		}
	}
}
