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
