package harness

import (
	"sync"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/trainer"
)

// PretrainConfig scales the offline pretraining loop (§3.8: the paper
// pre-trains PPO on held-out workloads — LiveMaps, TPCE, SearchEngine,
// Batch Analytics — using a simulator to parallelize collection; here the
// internal/trainer worker pool plays Ray's role over the same
// discrete-event simulator).
type PretrainConfig struct {
	Seed int64
	// Episodes is the number of simulated collocations to train over.
	Episodes int
	// EpisodeDuration is the virtual time per episode.
	EpisodeDuration sim.Time
	// Window is the decision window during pretraining (smaller than
	// deployment for more transitions per simulated second).
	Window sim.Time
	// LR is the pretraining learning rate (deployment fine-tuning uses the
	// paper's 1e-4; pretraining converges faster at 1e-3).
	LR float64
	// Workers is the number of episodes per PPO update (0 → 1), collected
	// concurrently. A round is Workers episodes against one weight
	// snapshot, so the trained model depends on it, and a resumed run must
	// keep it.
	Workers int

	// CheckpointDir enables atomic snapshot/resume when non-empty.
	CheckpointDir string
	// CheckpointEvery is the round period of snapshots (default 1).
	CheckpointEvery int
	// Resume restarts from the newest readable checkpoint.
	Resume bool
	// MetricsPath appends per-round JSONL training telemetry.
	MetricsPath string
	// EvalEvery gates a held-out greedy eval episode every EvalEvery
	// rounds for best-model selection (0 disables).
	EvalEvery int
	// Logf receives per-round progress lines (nil = silent).
	Logf func(format string, args ...any)
	// Obs, when non-nil, exports the trainer's per-round gauges for a
	// live /metrics endpoint (cmd/fleettrain -http).
	Obs *obs.Registry
}

// DefaultPretrainConfig returns a budget that pretrains in tens of CPU
// seconds; cmd/fleettrain uses larger budgets.
func DefaultPretrainConfig() PretrainConfig {
	return PretrainConfig{
		Seed:            11,
		Episodes:        6,
		EpisodeDuration: 20 * sim.Second,
		Window:          100 * sim.Millisecond,
		LR:              1e-3,
		Workers:         2,
	}
}

// pretrainMixes pairs the held-out workloads the way deployment collocates
// latency- and bandwidth-oriented tenants.
func pretrainMixes() []MixSpec {
	return []MixSpec{
		{Label: "pre1", Workloads: []string{"TPCE", "BatchAnalytics"}},
		{Label: "pre2", Workloads: []string{"LiveMaps", "BatchAnalytics"}},
		{Label: "pre3", Workloads: []string{"SearchEngine", "BatchAnalytics"}},
	}
}

// Pretrain trains one shared FleetIO network across episodes of held-out
// workload mixes and returns it.
func Pretrain(pc PretrainConfig) *nn.ActorCritic {
	return pretrainMode(pc, core.ModeFull)
}

// pretrainMode pretrains under a specific reward variant (Figure 15's
// ablation pretrains each mode separately, since the reward differences
// shape behavior during training, not at deployment).
func pretrainMode(pc PretrainConfig, mode core.Mode) *nn.ActorCritic {
	res, err := PretrainRun(pc, mode)
	if err != nil {
		// Without checkpoint/metrics paths Run cannot fail at runtime;
		// reaching here means a misconfigured call, which matches the
		// seed's panic-on-bad-config convention elsewhere in the harness.
		panic(err)
	}
	return res.Final
}

// PretrainRun is the full-fat pretraining entry point: it fans episode
// collection out across pc.Workers goroutines (each owning its own
// sim.Engine and platform), runs synchronous PPO updates on one shared
// network between rounds, and exposes checkpointing, eval-gated best-model
// selection, and JSONL telemetry to callers like cmd/fleettrain.
func PretrainRun(pc PretrainConfig, mode core.Mode) (*trainer.Result, error) {
	mixes := pretrainMixes()
	rcfg := rl.DefaultConfig()
	rcfg.LR = pc.LR
	spec := func(mix MixSpec, seed int64, greedy bool) episodeSpec {
		return episodeSpec{
			Mix:      mix,
			Mode:     mode,
			Seed:     seed,
			Window:   pc.Window,
			Duration: pc.EpisodeDuration,
			RL:       rcfg,
			Greedy:   greedy,
		}
	}
	return trainer.Run(trainer.Config{
		Seed:     pc.Seed,
		Workers:  pc.Workers,
		Episodes: pc.Episodes,
		RL:       rcfg,
		NewNet: func(rng *sim.RNG) *nn.ActorCritic {
			dim := core.DefaultHistoryWindows * core.StatesPerWindow
			heads := []int{len(core.HarvestLevels), len(core.HarvestLevels), len(core.PriorityLevels)}
			return nn.NewActorCritic(dim, 50, heads, rng)
		},
		Collect: func(ep int, seed int64, net *nn.ActorCritic) *rl.Buffer {
			mix := mixes[ep%len(mixes)]
			return rl.Merge(runEpisode(spec(mix, seed, false), net)...)
		},
		Eval: func(seed int64, net *nn.ActorCritic) float64 {
			// Score on the first held-out mix with greedy actions; the
			// fixed seed makes scores comparable across rounds.
			return rl.Merge(runEpisode(spec(mixes[0], seed, true), net)...).MeanReward()
		},
		EvalEvery:       pc.EvalEvery,
		CheckpointDir:   pc.CheckpointDir,
		CheckpointEvery: pc.CheckpointEvery,
		Resume:          pc.Resume,
		MetricsPath:     pc.MetricsPath,
		Logf:            pc.Logf,
		Obs:             pc.Obs,
	})
}

// models caches the process-wide pretrained network per reward variant.
var (
	modelsMu sync.Mutex
	models   = map[core.Mode]*nn.ActorCritic{}
)

// SetInjectedModel installs a pre-built ModeFull model (e.g. loaded from
// cmd/fleettrain's output) for all subsequent PretrainedModel calls.
func SetInjectedModel(net *nn.ActorCritic) {
	modelsMu.Lock()
	defer modelsMu.Unlock()
	models[core.ModeFull] = net
}

// PretrainedModel returns the process-wide pretrained network, training it
// on first use unless a model was injected.
func PretrainedModel() *nn.ActorCritic { return pretrainedModelFor(core.ModeFull) }

// WithPretrained returns a copy of opt seeded with the process-wide
// pretrained model.
func WithPretrained(opt Options) Options {
	opt.Pretrained = PretrainedModel()
	return opt
}

// pretrainedModelFor returns (training once per process per mode) the
// network pretrained under the given reward variant.
func pretrainedModelFor(mode core.Mode) *nn.ActorCritic {
	modelsMu.Lock()
	defer modelsMu.Unlock()
	if net, ok := models[mode]; ok {
		return net
	}
	net := pretrainMode(DefaultPretrainConfig(), mode)
	models[mode] = net
	return net
}
