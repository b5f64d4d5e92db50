package harness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/sim"
)

func TestPretrainProducesNet(t *testing.T) {
	pc := DefaultPretrainConfig()
	pc.Episodes = 1
	pc.EpisodeDuration = 4 * sim.Second
	net := Pretrain(pc)
	if net == nil || net.NumParams() < 1000 {
		t.Fatal("pretraining produced no usable network")
	}
}

// Same seed + same worker count ⇒ byte-identical weights, even though the
// two episodes of each round run on concurrent goroutines.
func TestPretrainDeterministicAcrossRuns(t *testing.T) {
	pc := DefaultPretrainConfig()
	pc.Episodes = 2
	pc.Workers = 2
	pc.EpisodeDuration = 2 * sim.Second
	a := Pretrain(pc)
	b := Pretrain(pc)
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("param counts differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("weight %d differs between identical runs: %v != %v", i, pa[i], pb[i])
		}
	}
}

// runEpisode is the trainer's episode factory: it must produce one rollout
// per collocated tenant, terminal-marked, without mutating the policy net.
func TestRunEpisodeCollectsRollouts(t *testing.T) {
	net := nn.NewActorCritic(core.DefaultHistoryWindows*core.StatesPerWindow, 50,
		[]int{len(core.HarvestLevels), len(core.HarvestLevels), len(core.PriorityLevels)},
		sim.NewRNG(3))
	before := net.Params()
	pc := DefaultPretrainConfig()
	pc.EpisodeDuration = 2 * sim.Second
	spec := episodeSpec{
		Pretrain: pc,
		Mix:      MixSpec{Label: "t", Workloads: []string{"TPCE", "BatchAnalytics"}},
		Seed:     5,
	}
	bufs := runEpisode(spec, net)
	if len(bufs) != 2 {
		t.Fatalf("%d rollouts for 2 tenants", len(bufs))
	}
	for i, b := range bufs {
		if b.Len() < 10 {
			t.Fatalf("tenant %d collected only %d transitions", i, b.Len())
		}
		if steps := b.Steps(); !steps[len(steps)-1].Done {
			t.Fatalf("tenant %d rollout not terminal-marked", i)
		}
	}
	after := net.Params()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("collection episode mutated the network")
		}
	}
}

// The Figure 10 acceptance check with a pretrained model: FleetIO must
// clearly beat hardware isolation on utilization while staying far below
// software isolation's tail latency.
func TestPretrainedFleetIOHarvests(t *testing.T) {
	if testing.Short() {
		t.Skip("pretraining is expensive")
	}
	opt := WithPretrained(DefaultOptions())
	opt.Window = 200 * sim.Millisecond
	opt.Warmup = 4 * sim.Second
	opt.Duration = 8 * sim.Second
	mix := Pair("YCSB", "TeraSort")
	slos := Calibrate(mix, opt)
	hw := RunOne(mix, PolHardware, slos, opt)
	sw := RunOne(mix, PolSoftware, slos, opt)
	fio := RunOne(mix, PolFleetIO, slos, opt)
	t.Logf("util: hw=%.3f fio=%.3f sw=%.3f", hw.AvgUtil, fio.AvgUtil, sw.AvgUtil)
	t.Logf("biBW: hw=%.1f fio=%.1f sw=%.1f MB/s", hw.BandwidthTenant(), fio.BandwidthTenant(), sw.BandwidthTenant())
	t.Logf("P99: hw=%.2f fio=%.2f sw=%.2f ms", hw.LatencyTenantP99(), fio.LatencyTenantP99(), sw.LatencyTenantP99())
	if fio.AvgUtil < 1.10*hw.AvgUtil {
		t.Fatalf("FleetIO util %.3f < 1.10× hardware %.3f", fio.AvgUtil, hw.AvgUtil)
	}
	// The Figure 10 ordering: FleetIO's tail sits between hardware and
	// software isolation, closer to hardware as training matures.
	if fio.LatencyTenantP99() >= sw.LatencyTenantP99() {
		t.Fatalf("FleetIO P99 %.2f not below software %.2f", fio.LatencyTenantP99(), sw.LatencyTenantP99())
	}
	if fio.LatencyTenantP99() > 2.2*hw.LatencyTenantP99() {
		t.Fatalf("FleetIO P99 %.2f too far above hardware %.2f", fio.LatencyTenantP99(), hw.LatencyTenantP99())
	}
}
