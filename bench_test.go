package fleetio

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/vssd"
)

// benchOptions shrinks each figure to a benchmark-sized run while keeping
// the experiment structure intact. Absolute numbers come from
// cmd/fleetbench with full durations.
func benchOptions() harness.Options {
	opt := harness.DefaultOptions()
	opt.Window = 200 * sim.Millisecond
	opt.Warmup = 2 * sim.Second
	opt.Duration = 3 * sim.Second
	opt.BlocksPerChip = 32
	return opt
}

var benchPretrainOnce sync.Once

func benchPretrained(b *testing.B) harness.Options {
	b.Helper()
	benchPretrainOnce.Do(func() { harness.PretrainedModel() })
	return harness.WithPretrained(benchOptions())
}

// BenchmarkFigure2 regenerates the §2.2 utilization study (hardware vs
// software isolation) for one representative pair per iteration.
func BenchmarkFigure2(b *testing.B) {
	opt := benchOptions()
	mix := harness.Pair("YCSB", "TeraSort")
	for i := 0; i < b.N; i++ {
		rs := harness.Compare(mix, []harness.PolicyKind{harness.PolHardware, harness.PolSoftware}, opt)
		b.ReportMetric(rs[1].AvgUtil/rs[0].AvgUtil, "util-ratio-sw/hw")
	}
}

// BenchmarkFigure3 reports the per-tenant §2.2 contrasts.
func BenchmarkFigure3(b *testing.B) {
	opt := benchOptions()
	mix := harness.Pair("VDI-Web", "PageRank")
	for i := 0; i < b.N; i++ {
		rs := harness.Compare(mix, []harness.PolicyKind{harness.PolHardware, harness.PolSoftware}, opt)
		b.ReportMetric(rs[1].BandwidthTenant()/rs[0].BandwidthTenant(), "bi-bw-ratio")
		b.ReportMetric(rs[1].LatencyTenantP99()/rs[0].LatencyTenantP99(), "ls-p99-ratio")
	}
}

// BenchmarkFigure6 regenerates the workload clustering and reports its
// test accuracy (paper: 98.4%).
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.Figure6(io.Discard)
	}
}

// BenchmarkFigure10 runs the headline tradeoff (HW, SW, FleetIO) on one
// pair and reports FleetIO's utilization gain and normalized P99.
func BenchmarkFigure10(b *testing.B) {
	opt := benchPretrained(b)
	mix := harness.Pair("YCSB", "TeraSort")
	for i := 0; i < b.N; i++ {
		rs := harness.Compare(mix,
			[]harness.PolicyKind{harness.PolHardware, harness.PolSoftware, harness.PolFleetIO}, opt)
		hw, fio := rs[0], rs[2]
		b.ReportMetric(fio.AvgUtil/hw.AvgUtil, "fleetio-util-gain")
		b.ReportMetric(fio.LatencyTenantP99()/hw.LatencyTenantP99(), "fleetio-p99-norm")
	}
}

// BenchmarkFigure11Through13 runs the full five-policy lineup on one pair;
// the same runs back Figures 11, 12, and 13.
func BenchmarkFigure11Through13(b *testing.B) {
	opt := benchPretrained(b)
	mix := harness.Pair("VDI-Web", "TeraSort")
	for i := 0; i < b.N; i++ {
		rs := harness.Compare(mix, harness.AllPolicies(), opt)
		b.ReportMetric(rs[4].AvgUtil*100, "fleetio-util-%")
		b.ReportMetric(rs[4].LatencyTenantP99(), "fleetio-p99-ms")
		b.ReportMetric(rs[4].BandwidthTenant(), "fleetio-bi-MB/s")
	}
}

// BenchmarkFigure14 runs the scalability mix3 (4 vSSDs).
func BenchmarkFigure14(b *testing.B) {
	opt := benchPretrained(b)
	mix := harness.Table5Mixes()[2]
	for i := 0; i < b.N; i++ {
		rs := harness.Compare(mix, []harness.PolicyKind{harness.PolHardware, harness.PolFleetIO}, opt)
		b.ReportMetric(rs[1].AvgUtil/rs[0].AvgUtil, "util-gain-4vssd")
	}
}

// BenchmarkFigure15 runs the reward ablation on one pair.
func BenchmarkFigure15(b *testing.B) {
	opt := benchPretrained(b)
	mix := harness.Pair("YCSB", "MLPrep")
	kinds := []harness.PolicyKind{harness.PolFleetIOCustomizedLocal, harness.PolFleetIOUnifiedGlobal, harness.PolFleetIO}
	for i := 0; i < b.N; i++ {
		rs := harness.Compare(mix, kinds, opt)
		b.ReportMetric(rs[2].AvgUtil/rs[0].AvgUtil, "full-vs-local-util")
	}
}

// BenchmarkFigure16 runs the mixed hardware/software isolation topology.
func BenchmarkFigure16(b *testing.B) {
	opt := benchPretrained(b)
	for i := 0; i < b.N; i++ {
		rows := harness.Figure16(io.Discard, opt)
		b.ReportMetric(rows[2].AvgUtil/rows[0].AvgUtil, "fleetio-vs-mixed-util")
	}
}

// BenchmarkFigure17 runs one robustness transfer case.
func BenchmarkFigure17(b *testing.B) {
	opt := benchPretrained(b)
	for i := 0; i < b.N; i++ {
		res := harness.RunTransfer("TeraSort", "VDI-Web", "YCSB", opt).Result
		b.ReportMetric(res.BandwidthTenant(), "transfer-bi-MB/s")
	}
}

// BenchmarkFigureFleet runs the rack-scale fleet scenario — 16 device
// shards, least-loaded placement, admission and cold migration live —
// and reports aggregate simulated I/O throughput per wall-second, the
// scaling number of the multi-device layer.
func BenchmarkFigureFleet(b *testing.B) {
	opt := benchOptions()
	opt.FleetDevices = 16
	var completed int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := harness.FleetScenario(fleet.PlaceLeastLoaded, opt)
		completed += st.Completed
		if !st.Balanced() {
			b.Fatalf("fleet ledger imbalance: %+v", st)
		}
	}
	b.ReportMetric(float64(completed)/b.Elapsed().Seconds(), "simIOPS/s")
}

// BenchmarkFigureTiers runs the hybrid-rack scenario — an 8-device
// SLC-like/QLC-like rack under all three tier policies (static-pin,
// watermark, learned) per iteration — and reports the learned policy's
// latency-class mean P99, the figure's comparison axis. The learned
// sub-run trains its per-shard agent stacks online, so this also tracks
// the placement-head RL cost.
func BenchmarkFigureTiers(b *testing.B) {
	opt := benchOptions()
	var out strings.Builder
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		harness.FigureTiers(&out, opt)
	}
	st := harness.TierScenario(fleet.TierLearned, opt)
	if !st.Balanced() {
		b.Fatalf("tier ledger imbalance: %+v", st)
	}
	b.ReportMetric(st.LsMeanP99Ms, "learned-lsP99-ms")
}

// fleetFingerprint pins every fleet counter and per-device float for byte
// comparison across worker counts inside BenchmarkFleetScaling.
func fleetFingerprint(st fleet.Stats) string {
	var sb strings.Builder
	st.Render(&sb)
	for _, d := range st.PerDevice {
		fmt.Fprintf(&sb, "dev %d tenants=%d util=%.6f bytes=%d completed=%d\n",
			d.Device, d.Tenants, d.MeanUtil, d.BytesMoved, d.Completed)
	}
	return sb.String()
}

// BenchmarkFleetScaling measures the persistent shard-worker runtime on
// racks of 64 and 256 devices at 1/2/4/8 workers: aggregate simulated
// I/O throughput per wall-second, speedup over the sequential run, and
// per-worker scaling efficiency. The workers=1 sub-benchmark doubles as
// the byte-identity oracle — every other worker count must reproduce its
// output exactly (check.sh smokes the workers 1 vs 4 pair). Scaling
// numbers are only meaningful on multi-core hosts; the structure (static
// contiguous shard ranges, one barrier epoch per quantum) is what is
// under test here.
func BenchmarkFleetScaling(b *testing.B) {
	for _, devices := range []int{64, 256} {
		var baseSecs float64
		var baseOut string
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("devices=%d/workers=%d", devices, workers), func(b *testing.B) {
				cfg := fleet.Config{
					Devices:   devices,
					Seed:      1,
					Duration:  1 * sim.Second,
					Placement: fleet.PlaceLeastLoaded,
					Migration: true,
					Workers:   workers,
				}
				var completed int64
				var out string
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st := fleet.New(cfg).Run()
					completed += st.Completed
					if !st.Balanced() {
						b.Fatalf("fleet ledger imbalance: %+v", st)
					}
					if i == 0 {
						b.StopTimer()
						out = fleetFingerprint(st)
						b.StartTimer()
					}
				}
				secs := b.Elapsed().Seconds() / float64(b.N)
				b.ReportMetric(float64(completed)/b.Elapsed().Seconds(), "simIOPS/s")
				if workers == 1 {
					baseSecs, baseOut = secs, out
					return
				}
				if baseOut != "" && out != baseOut {
					b.Fatalf("workers=%d output diverged from workers=1:\n%s\nvs:\n%s", workers, out, baseOut)
				}
				if baseSecs > 0 && secs > 0 {
					speedup := baseSecs / secs
					b.ReportMetric(speedup, "speedup-vs-w1")
					b.ReportMetric(speedup/float64(workers), "scale-eff")
				}
			})
		}
	}
}

// BenchmarkFigureWorkloads runs the temporal-realism ladder — steady,
// diurnal, bursty, and trace replay on one pair under FleetIO, each run
// classified by the workload-type model — and reports simulated request
// throughput per wall-second across the whole ladder.
func BenchmarkFigureWorkloads(b *testing.B) {
	opt := benchPretrained(b)
	mix := harness.Pair("YCSB", "TeraSort")
	harness.TypeModel() // train the clusterer outside the timed loop
	var completed int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := harness.WorkloadScenario(mix, opt)
		for _, row := range rows {
			if n := len(row.TypeLabels()); n != len(row.Result.Tenants) {
				b.Fatalf("%s: %d labels for %d tenants", row.Level, n, len(row.Result.Tenants))
			}
			for _, t := range row.Result.Tenants {
				completed += t.Completed
			}
		}
	}
	b.ReportMetric(float64(completed)/b.Elapsed().Seconds(), "simIOPS/s")
}

// --- §4.7 overhead microbenchmarks -----------------------------------

func overheadNet() (*rl.PPO, []float64) {
	rng := sim.NewRNG(1)
	dim := core.DefaultHistoryWindows * core.StatesPerWindow
	net := nn.NewActorCritic(dim, 50,
		[]int{len(core.HarvestLevels), len(core.HarvestLevels), len(core.PriorityLevels)}, rng)
	state := make([]float64, dim)
	for i := range state {
		state[i] = rng.Float64()
	}
	return rl.New(net, rl.DefaultConfig(), rng), state
}

// BenchmarkInference measures one per-window policy inference (paper:
// 1.1 ms on their board's host CPU).
func BenchmarkInference(b *testing.B) {
	ppo, state := overheadNet()
	ppo.ActGreedy(state) // size the reusable scratch outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ppo.ActGreedy(state)
	}
}

// BenchmarkFineTune measures one PPO fine-tuning update over 10 windows of
// transitions (paper: 51.2 ms per 10 windows).
func BenchmarkFineTune(b *testing.B) {
	ppo, state := overheadNet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var buf rl.Buffer
		for j := 0; j < 32; j++ {
			a, lp, v := ppo.Act(state)
			buf.Add(rl.Transition{State: state, Actions: a, LogProb: lp, Value: v, Reward: 0.5})
		}
		b.StartTimer()
		ppo.Train(&buf, 0)
	}
}

func overheadPlatform() *vssd.Platform {
	eng := sim.NewEngine()
	pc := vssd.DefaultPlatformConfig()
	pc.Flash.BlocksPerChip = 128
	pc.Flash.PagesPerBlock = 64
	p := vssd.NewPlatform(eng, pc)
	p.AddVSSD(vssd.Config{Name: "home", Channels: ChannelRange(0, 8)})
	p.AddVSSD(vssd.Config{Name: "harv", Channels: ChannelRange(8, 16)})
	return p
}

// BenchmarkGSBCreate measures ghost-superblock creation + reclamation
// (paper: <1 µs, metadata only).
func BenchmarkGSBCreate(b *testing.B) {
	p := overheadPlatform()
	home := p.VSSD(0).Tenant()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.GSB().SetHarvestable(home, 1)
		p.GSB().SetHarvestable(home, 0)
	}
}

// BenchmarkAdmissionBatch measures processing a batch of 1000 actions
// (paper: 0.8 ms).
func BenchmarkAdmissionBatch(b *testing.B) {
	p := overheadPlatform()
	adm := admission.NewController(p, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Harvest targets of 0 make the batch metadata-only, isolating the
		// controller's own cost as §4.7 does.
		for j := 0; j < 1000; j++ {
			adm.Submit(vssd.Action{VSSD: j % 2, Kind: vssd.ActHarvest, BW: 0})
		}
		b.StartTimer()
		adm.Flush()
	}
}

// BenchmarkSimulatorThroughput measures raw event throughput of the
// simulation substrate.
func BenchmarkSimulatorThroughput(b *testing.B) {
	eng := sim.NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			eng.Schedule(100, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Schedule(100, tick)
	eng.Run()
}
