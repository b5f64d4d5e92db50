package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

func tinyOptions() Options {
	o := DefaultOptions()
	o.Window = 200 * sim.Millisecond
	o.Warmup = 1 * sim.Second
	o.Duration = 2 * sim.Second
	o.BlocksPerChip = 32
	return o
}

func TestFigure6Output(t *testing.T) {
	var buf bytes.Buffer
	figure6(&buf)
	out := buf.String()
	for _, want := range []string{"cluster", "TeraSort", "YCSB", "accuracy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Figure 6 output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure2And3Formatting(t *testing.T) {
	opt := tinyOptions()
	grid := pairGrid([]PolicyKind{PolHardware, PolSoftware}, opt)
	var buf bytes.Buffer
	figure2(&buf, grid)
	figure3(&buf, grid)
	out := buf.String()
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "Figure 3a") || !strings.Contains(out, "Figure 3b") {
		t.Fatalf("missing figure headers:\n%s", out)
	}
	if !strings.Contains(out, "YCSB+TeraSort") {
		t.Fatal("missing pair rows")
	}
}

func TestFigure16MixedIsolation(t *testing.T) {
	opt := tinyOptions()
	var buf bytes.Buffer
	rows := figure16(&buf, opt)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	labels := []string{"Mixed Isolation", "Software Isolation", "FleetIO"}
	for i, r := range rows {
		if r.Policy != labels[i] {
			t.Fatalf("row %d = %q", i, r.Policy)
		}
		if r.AvgUtil <= 0 || r.BandwidthTenant() <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
	}
}

// requestsObserved reads vSSD 0's completed-request counter back from the
// observer's registry: non-zero only if the run started the telemetry
// sampler.
func requestsObserved(o *obs.Observer, name string) float64 {
	return o.Registry().Counter("fleetio_vssd_requests_total", "", "vssd", "0", "name", name).Value()
}

// TestMixedIsolationHonoursFaultsAndObs pins the drift the single run path
// removed: Figure 16's topology used to be assembled by a private copy of
// the builder that ignored Options.Faults and Options.Obs.
func TestMixedIsolationHonoursFaultsAndObs(t *testing.T) {
	opt := tinyOptions()
	heavy := fault.Heavy()
	opt.Faults = &heavy
	opt.Obs = obs.NewObserver()
	mix := MixSpec{Label: "mix3-mixed", Workloads: []string{"VDI-Web", "VDI-Web", "TeraSort", "TeraSort"}}
	r := measureMixedIsolation(mix, PolFleetIO, Calibrate(mix, opt), opt)
	st := r.FaultStats()
	if st.Device.ProgramFails == 0 {
		t.Fatal("heavy fault profile injected no program failures into the mixed topology")
	}
	if !st.Balanced() {
		t.Fatalf("recovery imbalance: injected=%d remapped=%d recovered=%d",
			st.Device.ProgramFails, st.Remapped, st.Recovered())
	}
	if requestsObserved(opt.Obs, "VDI-Web-0") == 0 {
		t.Fatal("observed mixed-isolation run exported no vSSD request telemetry")
	}
}

// TestRunTransferObserved: the transfer run used to hand-roll its drive
// sequence and never started the sampler.
func TestRunTransferObserved(t *testing.T) {
	opt := tinyOptions()
	opt.Obs = obs.NewObserver()
	runTransfer("TeraSort", "VDI-Web", "YCSB", opt)
	if requestsObserved(opt.Obs, "TeraSort-0") == 0 {
		t.Fatal("observed transfer run exported no vSSD request telemetry")
	}
}

// TestRunTransferRecordsReplacement: the swapped-in generator used to run
// unrecorded, so tenant 1's recorder — what re-typing classifies — held
// only the departed workload's trace.
func TestRunTransferRecordsReplacement(t *testing.T) {
	opt := tinyOptions()
	typeOf := func(name string) string {
		return Measure(Pair("TeraSort", name), PolHardware, nil, opt).typeLabels()[1]
	}
	from, to := typeOf("VDI-Web"), typeOf("YCSB")
	if from == to {
		t.Fatalf("VDI-Web and YCSB both type as %s; the test needs distinct types", from)
	}
	if got := runTransfer("TeraSort", "VDI-Web", "YCSB", opt).typeLabels()[1]; got != to {
		t.Errorf("tenant 1 types as %s after the swap to YCSB, want %s (VDI-Web is %s)", got, to, from)
	}
}

func TestRunTransferMeasuresFinalMix(t *testing.T) {
	opt := tinyOptions()
	res := runTransfer("TeraSort", "VDI-Web", "YCSB", opt).Result
	if len(res.Tenants) != 2 {
		t.Fatalf("tenants = %d", len(res.Tenants))
	}
	if res.Tenants[0].Workload != "TeraSort" || res.Tenants[1].Workload != "YCSB" {
		t.Fatalf("final mix wrong: %s + %s", res.Tenants[0].Workload, res.Tenants[1].Workload)
	}
	for _, tr := range res.Tenants {
		if tr.Completed == 0 {
			t.Fatalf("%s idle after the swap", tr.Workload)
		}
	}
}

func TestOverheadsReport(t *testing.T) {
	var buf bytes.Buffer
	rep := overheads(&buf)
	if rep.InferencePerWindow <= 0 || rep.FineTunePer10Windows <= 0 ||
		rep.GSBCreate <= 0 || rep.AdmissionPer1000 <= 0 {
		t.Fatalf("degenerate overheads: %+v", rep)
	}
	if rep.ModelParams < 4000 || rep.ModelParams > 12000 {
		t.Fatalf("model params = %d, want the paper's ~9K regime", rep.ModelParams)
	}
	if rep.ModelBytes <= 0 {
		t.Fatal("model bytes missing")
	}
	if !strings.Contains(buf.String(), "overhead") {
		t.Fatal("report text missing")
	}
}
