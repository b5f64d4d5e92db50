package harness

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/sim"
)

// fastOptions is the shape rows' budget: a short run on a small device.
func fastOptions() Options { return shapeBudget.options(0) }

func TestPolicyKindStrings(t *testing.T) {
	want := map[PolicyKind]string{
		PolHardware: "Hardware Isolation", PolSSDKeeper: "SSDKeeper",
		PolAdaptive: "Adaptive", PolSoftware: "Software Isolation",
		PolFleetIO: "FleetIO", PolFleetIOUnifiedGlobal: "FleetIO-Unified-Global",
		PolFleetIOCustomizedLocal: "FleetIO-Customized-Local",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d = %q, want %q", k, k.String(), s)
		}
	}
}

func TestUtilizationMath(t *testing.T) {
	fc := DefaultOptions().flashConfig()
	// Moving peak bytes for one second = 100% utilization.
	if got, _ := utilization(fc, int64(fc.PeakBandwidth()), sim.Second, nil); got < 0.999 || got > 1.001 {
		t.Fatalf("utilization = %v, want 1.0", got)
	}
	if got, _ := utilization(fc, 100, 0, nil); got != 0 {
		t.Fatalf("zero duration gave %v, want 0", got)
	}
}

func TestEvalPairsAndMixes(t *testing.T) {
	pairs := evalPairs()
	if len(pairs) != 6 {
		t.Fatalf("eval pairs = %d, want 6", len(pairs))
	}
	mixes := table5Mixes()
	if len(mixes) != 5 {
		t.Fatalf("mixes = %d", len(mixes))
	}
	sizes := []int{2, 2, 4, 4, 8}
	for i, m := range mixes {
		if len(m.Workloads) != sizes[i] {
			t.Fatalf("%s has %d workloads, want %d", m.Label, len(m.Workloads), sizes[i])
		}
	}
}

func TestCalibrateProducesSLOs(t *testing.T) {
	opt := fastOptions()
	slos := Calibrate(Pair("YCSB", "TeraSort"), opt)
	if len(slos) != 2 {
		t.Fatalf("slos = %v", slos)
	}
	for i, s := range slos {
		if s < 100*sim.Microsecond || s > 500*sim.Millisecond {
			t.Fatalf("SLO[%d] = %v implausible", i, s)
		}
	}
}

// TestDecisionWindowSteadyStateAllocs is the allocation guard over the whole
// decision window, not only over its kernels: a deployed FleetIO pair —
// generators, vSSD dispatch, flash, FTL and GC, decide, online PPO
// fine-tuning every 10 windows, re-typing every 5 — past warm-up leaves
// next to no garbage per window (measured ~2 KB; a copy of each tenant's
// trace ring per re-typing made it ~130 KB).
func TestDecisionWindowSteadyStateAllocs(t *testing.T) {
	const windows, perWindow = 40, 4 << 10
	opt := WithPretrained(DefaultOptions())
	mix := Pair("YCSB", "TeraSort")
	r := buildPlatform(mix, PolFleetIO, nil, Calibrate(mix, opt), opt)
	r.AttachPolicy(PolFleetIO)
	r.Start()
	defer r.stop()
	// Warm-up ends when the slower tenant's trace ring is at capacity: by
	// then every scratch is sized and PPO has updated several times.
	warm := opt.Warmup
	r.Advance(warm)
	for r.recs[0].Len() < cluster.WindowSize || r.recs[1].Len() < cluster.WindowSize {
		if warm += opt.Window; warm > 60*sim.Second {
			t.Fatalf("trace rings not full after %v virtual ns (%d and %d records)", warm, r.recs[0].Len(), r.recs[1].Len())
		}
		r.Advance(warm)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.Advance(warm + windows*opt.Window)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d decision windows: %d bytes allocated (%d per window, %d mallocs)",
		windows, got, got/windows, after.Mallocs-before.Mallocs)
	if got > windows*perWindow {
		t.Fatalf("%d decision windows allocated %d bytes (%d per window), want <= %d per window",
			windows, got, got/windows, perWindow)
	}
}

// A recorder belongs to its reader: a deployed FleetIO run, which re-types
// its tenants, holds one per tenant, filled by that tenant's generator.
// The runs nothing types — a hardware-isolated run, a Calibrate solo, a
// pretraining episode and Fig. 16's FleetIO — hold none.
func TestOnlyRetypingRunsRecord(t *testing.T) {
	opt := tinyOptions()
	mix := Pair("YCSB", "TeraSort")

	deployed := Measure(mix, PolFleetIO, nil, opt)
	if len(deployed.recs) != len(mix.Workloads) {
		t.Fatalf("deployed FleetIO run holds %d recorders for %d tenants", len(deployed.recs), len(mix.Workloads))
	}
	for i, rec := range deployed.recs {
		if rec == nil || rec.Len() == 0 {
			t.Fatalf("deployed FleetIO run: tenant %d's recorder is empty", i)
		}
	}

	episode := func() *Run {
		spec := episodeSpec{Pretrain: DefaultPretrainConfig(), Mix: mix, Mode: core.ModeFull, Seed: opt.Seed}
		heads := []int{len(core.HarvestLevels), len(core.HarvestLevels), len(core.PriorityLevels)}
		net := nn.NewActorCritic(core.DefaultHistoryWindows*core.StatesPerWindow, 50, heads, sim.NewRNG(1))
		r := buildPlatform(mix, PolFleetIO, nil, nil, opt)
		r.attachFleetIO(episodeFleetIO(spec, net))
		r.execute(opt.Warmup)
		return r
	}
	for name, r := range map[string]*Run{
		"hardware-isolated run": Measure(mix, PolHardware, nil, opt),
		"Calibrate solo":        solo(mix, 1, nil, opt).measure(),
		"pretraining episode":   episode(),
		"Fig. 16 FleetIO run":   measureMixedIsolation(mix, PolFleetIO, nil, opt),
	} {
		if r.Result.Tenants != nil && r.Result.Tenants[0].Completed == 0 {
			t.Fatalf("%s ran no traffic", name)
		}
		if len(r.recs) != 0 {
			t.Errorf("%s holds %d recorders; nothing types its traffic", name, len(r.recs))
		}
	}
}

// A prefill that needs GC to finish would drain the engine before Start,
// past the end of a short run, which then measures nothing (0 completions,
// NaN bandwidth). AddTenant rejects it with the reason; 95% on the default
// geometry still prefills with the clock at zero and runs.
func TestPrefillThatRunsTheEngineIsRejected(t *testing.T) {
	opt := DefaultOptions()
	opt.Warmup, opt.Duration = 100*sim.Millisecond, 200*sim.Millisecond
	mix := Pair("YCSB", "TeraSort")

	opt.PrefillFrac = 0.98
	func() {
		defer func() {
			msg, _ := recover().(string)
			for _, want := range []string{"YCSB", "PrefillFrac 0.98"} {
				if !strings.Contains(msg, want) {
					t.Fatalf("panic %q does not name %q", msg, want)
				}
			}
		}()
		Measure(mix, PolHardware, nil, opt)
	}()

	opt.PrefillFrac = 0.95
	res := Measure(mix, PolHardware, nil, opt).Result
	for _, tr := range res.Tenants {
		if tr.Completed == 0 || math.IsNaN(tr.BandwidthMBps) || math.IsInf(tr.BandwidthMBps, 0) {
			t.Fatalf("%s at PrefillFrac 0.95: completed %d, bandwidth %v MB/s", tr.Workload, tr.Completed, tr.BandwidthMBps)
		}
	}
}

func TestTypeModelAlphaMapping(t *testing.T) {
	tm, alphas := TypeModel()
	if tm == nil {
		t.Fatal("type model missing")
	}
	// The three anchor workloads sit in distinct clusters, which map to
	// the three §3.8 α values.
	for wl, want := range map[string]float64{"VDI-Web": core.AlphaLC1, "YCSB": core.AlphaLC2, "TeraSort": core.AlphaBI} {
		if got, ok := alphas[tm.WorkloadCluster[wl]]; !ok || got != want {
			t.Errorf("%s: cluster %d has α %v (known %v), want %v", wl, tm.WorkloadCluster[wl], got, ok, want)
		}
	}
	if len(alphas) != 3 {
		t.Fatalf("alpha map = %v, want 3 clusters", alphas)
	}
}

func TestAdaptiveAndSSDKeeperRun(t *testing.T) {
	opt := fastOptions()
	opt.Duration = 3 * sim.Second
	mix := Pair("VDI-Web", "PageRank")
	slos := Calibrate(mix, opt)
	for _, k := range []PolicyKind{PolAdaptive, PolSSDKeeper} {
		res := RunOne(mix, k, slos, opt)
		if res.AvgUtil <= 0 {
			t.Fatalf("%s produced zero utilization", k)
		}
		for _, tr := range res.Tenants {
			if tr.Completed == 0 {
				t.Fatalf("%s: %s completed nothing", k, tr.Workload)
			}
		}
	}
}
