package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
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
	g := grid{mixes: evalPairs(), kinds: []PolicyKind{PolHardware, PolSoftware}}
	cs := new(memo).run(opt, g)
	var buf bytes.Buffer
	figure2(&buf, g, cs, opt.Seed)
	figure3(&buf, g, cs, opt.Seed)
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
	g := theGrids().mixed
	cs := new(memo).run(opt, g)
	var buf bytes.Buffer
	figure16(&buf, g, cs, opt.Seed)
	rows := strings.Split(buf.String(), "\n")[1:4]
	for i, label := range []string{"Mixed Isolation", "Software Isolation", "FleetIO"} {
		if !strings.HasPrefix(rows[i], label+" ") {
			t.Fatalf("row %d = %q, want %s", i, rows[i], label)
		}
		if r := cs.at(g.mixes[0], g.kinds[i], "mixed", opt.Seed); r.AvgUtil <= 0 || r.BandwidthTenant() <= 0 {
			t.Fatalf("degenerate row %+v", r.Result)
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
	if failing := obs.Failing(st.Invariants()); failing != "" {
		t.Fatalf("recovery rows fail: %s", failing)
	}
	if requestsObserved(opt.Obs, "VDI-Web-0") == 0 {
		t.Fatal("observed mixed-isolation run exported no vSSD request telemetry")
	}
}

// transferVtoY is Fig. 17's "T + (V->Y)" transfer run against the final
// mix's SLOs.
func transferVtoY(opt Options) *Run {
	mix := Pair("TeraSort", "YCSB")
	return runTransfer(mix, PolFleetIO, Calibrate(mix, opt), opt)
}

// TestRunTransferShapesReplacement: the swapped-in tenant generates what
// AddTenant would have given it, its workload under the run's shape, so
// under the replay shape it replays (and here wraps) a trace like the
// tenant it joins. It used to drive the bare profile, which never replays.
func TestRunTransferShapesReplacement(t *testing.T) {
	opt := tinyOptions()
	opt.WorkloadShape = workload.ShapeReplay
	opt.ReplayRecords = workload.ByName("YCSB").SynthesizeTrace(500, 1<<20, sim.NewRNG(9))
	gens := transferVtoY(opt).dev.Generators()
	for i, g := range gens {
		if g.ReplayWraps() == 0 {
			t.Errorf("tenant %d never wrapped its replay trace", i)
		}
	}
}

// TestRunTransferObserved: the transfer run used to hand-roll its drive
// sequence and never started the sampler.
func TestRunTransferObserved(t *testing.T) {
	opt := tinyOptions()
	opt.Obs = obs.NewObserver()
	transferVtoY(opt)
	if requestsObserved(opt.Obs, "TeraSort-0") == 0 {
		t.Fatal("observed transfer run exported no vSSD request telemetry")
	}
}

// TestRunTransferRecordsReplacement: the swapped-in generator used to run
// unrecorded, so tenant 1's recorder — what re-typing classifies — held
// only the departed workload's trace. The reference types come from
// deployed FleetIO runs, the runs that record.
func TestRunTransferRecordsReplacement(t *testing.T) {
	opt := tinyOptions()
	typeOf := func(name string) string {
		return Measure(Pair("TeraSort", name), PolFleetIO, nil, opt).typeLabels()[1]
	}
	from, to := typeOf("VDI-Web"), typeOf("YCSB")
	if from == to {
		t.Fatalf("VDI-Web and YCSB both type as %s; the test needs distinct types", from)
	}
	if got := transferVtoY(opt).typeLabels()[1]; got != to {
		t.Errorf("tenant 1 types as %s after the swap to YCSB, want %s (VDI-Web is %s)", got, to, from)
	}
}

func TestRunTransferMeasuresFinalMix(t *testing.T) {
	opt := tinyOptions()
	res := transferVtoY(opt).Result
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
