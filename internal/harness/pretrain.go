package harness

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/trainer"
)

// PretrainConfig scales the offline pretraining loop (§3.8: the paper
// pre-trains PPO on held-out workloads — LiveMaps, TPCE, SearchEngine,
// Batch Analytics — using a simulator to parallelize collection; here the
// internal/trainer worker pool plays Ray's role over the same
// discrete-event simulator). It is the trainer's Config plus the shape of
// each episode. A round is Workers episodes against one weight snapshot,
// so the trained model depends on Workers as on Seed, and a resumed run
// must keep both.
type PretrainConfig struct {
	trainer.Config
	// EpisodeDuration is the virtual time per episode.
	EpisodeDuration sim.Time
	// Window is the decision window during pretraining (smaller than
	// deployment for more transitions per simulated second).
	Window sim.Time
}

// DefaultPretrainConfig returns a budget that pretrains in tens of CPU
// seconds; cmd/fleettrain uses larger budgets. Pretraining converges
// faster at a learning rate of 1e-3 than deployment fine-tuning's 1e-4.
func DefaultPretrainConfig() PretrainConfig {
	return PretrainConfig{
		Config:          trainer.Config{Seed: 11, Episodes: 6, Workers: 2, RL: rl.Config{LR: 1e-3}},
		EpisodeDuration: 20 * sim.Second,
		Window:          100 * sim.Millisecond,
	}
}

// Validate reports the first value of pc that trains nothing or trains on
// something else (a zero LR falls back to rl's default), naming the flag
// that sets it. PretrainRun returns its error.
func (pc PretrainConfig) Validate() error {
	switch {
	case !(pc.RL.LR > 0) || math.IsInf(pc.RL.LR, 1): // NaN included
		return fmt.Errorf("-lr (RL.LR) %v: must be > 0 and finite", pc.RL.LR)
	case pc.EpisodeDuration <= 0:
		return fmt.Errorf("-episode-seconds (EpisodeDuration) %g s: must be at least 1 ns", secs(pc.EpisodeDuration))
	case pc.Window <= 0:
		return fmt.Errorf("-window (Window) %g s: must be at least 1 ns", secs(pc.Window))
	case pc.Episodes <= 0:
		return fmt.Errorf("-episodes (Episodes) %d: must be > 0", pc.Episodes)
	}
	return nil
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
		// Without checkpoint or metrics paths only a config Validate
		// rejects fails, and a bad config panics, as bad Options do.
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
	if err := pc.Validate(); err != nil {
		return nil, err
	}
	mixes := pretrainMixes()
	episode := func(mix MixSpec, seed int64, greedy bool, net *nn.ActorCritic) *rl.Buffer {
		return rl.Merge(runEpisode(episodeSpec{Pretrain: pc, Mix: mix, Mode: mode, Seed: seed, Greedy: greedy}, net)...)
	}
	return trainer.Run(pc.Config, trainer.Env{
		NewNet: func(rng *sim.RNG) *nn.ActorCritic {
			dim := core.DefaultHistoryWindows * core.StatesPerWindow
			heads := []int{len(core.HarvestLevels), len(core.HarvestLevels), len(core.PriorityLevels)}
			return nn.NewActorCritic(dim, 50, heads, rng)
		},
		Collect: func(ep int, seed int64, net *nn.ActorCritic) *rl.Buffer {
			return episode(mixes[ep%len(mixes)], seed, false, net)
		},
		Eval: func(seed int64, net *nn.ActorCritic) float64 {
			// Score on the first held-out mix with greedy actions; the
			// fixed seed makes scores comparable across rounds.
			return episode(mixes[0], seed, true, net).MeanReward()
		},
	})
}

// episodeSpec describes one self-contained pretraining episode: which mix
// to collocate, under which reward variant, acting with which policy
// flavor. Each episode owns a private sim.Engine + platform, so any number
// of them can run concurrently (the trainer's worker pool relies on this).
type episodeSpec struct {
	// Pretrain is the run the episode belongs to: its window, episode
	// length and PPO settings (used for action sampling only; no learning
	// happens inside the episode).
	Pretrain PretrainConfig
	Mix      MixSpec
	Mode     core.Mode
	Seed     int64
	// Greedy selects argmax actions (held-out evaluation) instead of
	// sampling the stochastic policy (collection).
	Greedy bool
}

// runEpisode is the episode factory behind the parallel trainer's
// collection and eval callbacks (PretrainRun): it builds a fresh platform
// for the spec, drives a collection-only FleetIO sharing net (see
// episodeFleetIO) for one unmeasured phase, and returns one rollout buffer
// per agent with the final transition marked terminal.
func runEpisode(spec episodeSpec, net *nn.ActorCritic) []*rl.Buffer {
	opt := DefaultOptions()
	opt.Seed = spec.Seed
	opt.Window = spec.Pretrain.Window
	cal := opt // a short hardware-isolated run calibrates quickly
	cal.Warmup, cal.Duration = sim.Second, 2*sim.Second
	r := buildPlatform(spec.Mix, PolFleetIO, nil, Calibrate(spec.Mix, cal), opt)
	f := r.attachFleetIO(episodeFleetIO(spec, net))
	r.execute(spec.Pretrain.EpisodeDuration)
	return f.DrainRollouts()
}

// models holds the process-wide pretrained network per reward variant.
var models onceMap[core.Mode, *nn.ActorCritic]

// SetInjectedModel installs a pre-built ModeFull model (e.g. loaded from
// cmd/fleettrain's output) for all subsequent PretrainedModel calls.
func SetInjectedModel(net *nn.ActorCritic) {
	models.m.Store(core.ModeFull, func() *nn.ActorCritic { return net })
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
	return models.get(mode, func() *nn.ActorCritic { return pretrainMode(DefaultPretrainConfig(), mode) })
}
