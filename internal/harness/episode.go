package harness

import (
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/sim"
)

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

// pretrainSLOs calibrates quickly with a short hardware-isolated run.
func pretrainSLOs(mix MixSpec, opt Options) []sim.Time {
	o := opt
	o.Warmup = sim.Second
	o.Duration = 2 * sim.Second
	return Calibrate(mix, o)
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
	r := buildPlatform(spec.Mix, PolFleetIO, nil, pretrainSLOs(spec.Mix, opt), opt)
	f := r.attachFleetIO(episodeFleetIO(spec, net))
	r.execute(spec.Pretrain.EpisodeDuration)
	return f.DrainRollouts()
}
