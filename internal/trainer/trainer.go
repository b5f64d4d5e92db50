// Package trainer is FleetIO's parallel pretraining orchestrator (§3.8:
// the paper fans WiscSim episodes out under Ray; here a goroutine worker
// pool plays that role). N workers each own a full simulator episode —
// engine, platform, collection-only FleetIO policy — and stream rollout
// buffers to a single learner goroutine that runs synchronous PPO updates
// on the shared network and broadcasts fresh weights back between rounds.
//
// The package is environment-agnostic: Run takes its knobs (Config) and
// its environment (Env: the network factory and the CollectFunc/EvalFunc
// episode closures) apart, so the worker-pool/learner/checkpoint shape
// transfers to any training stack. internal/harness supplies the FleetIO
// episode factory and routes Pretrain through Run.
//
// Determinism: episode i always runs with seed Seed+i against the weight
// snapshot of its round, rounds are merged in episode order (not arrival
// order), and the learner's RNG is derived from Seed — so for a fixed
// worker count two Runs produce byte-identical models.
//
// Telemetry: each round produces one RoundStats record, which feeds three
// sinks — Result.Rounds (in memory), Config.MetricsPath (append-mode
// JSONL, schema documented on RoundStats and in docs/OBSERVABILITY.md),
// and Config.Obs (live fleetio_train_* gauges for /metrics scraping).
// All three are written from the learner goroutine only, so attaching
// them never perturbs training determinism.
package trainer

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/rl"
	"repro/internal/sim"
)

// CollectFunc runs one collection episode: build an environment from
// (ep, seed), act with net's stochastic policy, and return the rollout.
// It is called concurrently from worker goroutines; net is private to the
// calling worker, but everything else it touches must be safe to share.
type CollectFunc func(ep int, seed int64, net *nn.ActorCritic) *rl.Buffer

// EvalFunc scores a frozen policy snapshot on a held-out episode (greedy
// actions) and returns the mean per-transition reward.
type EvalFunc func(seed int64, net *nn.ActorCritic) float64

// evalSeedOffset keeps held-out eval episodes off the collection seed
// sequence for any plausible episode budget.
const evalSeedOffset = 1_000_003

// Config holds Run's knobs: the budget, the learner's settings, and where
// checkpoints and telemetry go.
type Config struct {
	Seed     int64
	Workers  int // episodes per PPO update, collected concurrently (default 1)
	Episodes int // total collection episodes across all rounds

	// RL holds the learner's learning rate, resolved by rl.Config.Resolved
	// (zero → the paper's 1e-4).
	RL rl.Config
	// EvalEvery is the round period of eval gating (0 disables even with
	// Env.Eval set; the final round is always evaluated when enabled).
	EvalEvery int

	// CheckpointDir enables atomic gob snapshots when non-empty.
	CheckpointDir string
	// CheckpointEvery is the round period of snapshots (default 1).
	CheckpointEvery int
	// Resume restarts from the newest readable checkpoint in
	// CheckpointDir, skipping corrupt or partial files.
	Resume bool

	// MetricsPath appends one JSONL RoundStats record per round.
	MetricsPath string
	// Logf, when set, receives human-readable per-round progress.
	Logf func(format string, args ...any)

	// Obs, when non-nil, exports per-round training gauges (reward,
	// losses, ApproxKL, worker throughput) for a live /metrics endpoint.
	// Gauges are written only from the learner goroutine.
	Obs *obs.Registry
}

// Env is the environment Run trains in.
type Env struct {
	// NewNet builds the initial network when no checkpoint is resumed.
	NewNet func(rng *sim.RNG) *nn.ActorCritic
	// Collect runs one collection episode (required).
	Collect CollectFunc
	// Eval scores a snapshot on a held-out episode; nil disables gating.
	Eval EvalFunc
}

// Result is what a training run produced.
type Result struct {
	// Final is the learner network after the last round.
	Final *nn.ActorCritic
	// Best is the eval-gated best snapshot (nil when eval was disabled).
	Best *nn.ActorCritic
	// BestScore is Best's held-out mean reward.
	BestScore float64
	// Rounds holds per-round telemetry, startRound-indexed on resume.
	Rounds []RoundStats
	// StartRound is the first round executed (>0 when resumed).
	StartRound int
}

// Run executes the collect/learn loop: ceil(Episodes/Workers) rounds, each
// dispatching up to Workers episodes to the pool, merging their rollouts in
// episode order, and applying one synchronous PPO update before
// broadcasting the new weights.
func Run(cfg Config, env Env) (*Result, error) {
	if env.Collect == nil {
		return nil, errors.New("trainer: Env.Collect is required")
	}
	if env.NewNet == nil {
		return nil, errors.New("trainer: Env.NewNet is required")
	}
	if cfg.Episodes <= 0 {
		return nil, fmt.Errorf("trainer: Episodes must be positive, got %d", cfg.Episodes)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	ckEvery := cfg.CheckpointEvery
	if ckEvery <= 0 {
		ckEvery = 1
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	rng := sim.NewRNG(cfg.Seed)
	net := env.NewNet(rng.Split(-1))
	learner := rl.New(net, cfg.RL.Resolved(), rng.Split(-2))

	res := &Result{Final: net, BestScore: 0}
	bestSet := false
	var bestParams []float64

	totalRounds := (cfg.Episodes + workers - 1) / workers
	if cfg.Resume && cfg.CheckpointDir != "" {
		ck, path, err := loadLatest(cfg.CheckpointDir)
		if err != nil {
			return nil, err
		}
		if ck != nil {
			// Round r is episodes r*Workers onward, seeded from Seed: another
			// count or seed would skip or repeat episodes.
			if ck.Seed != cfg.Seed || ck.Workers != workers {
				return nil, fmt.Errorf("trainer: resume %s: checkpoint was written with seed %d and %d workers, this run has seed %d and %d workers",
					path, ck.Seed, ck.Workers, cfg.Seed, workers)
			}
			if err := net.SetParams(ck.Params); err != nil {
				return nil, fmt.Errorf("trainer: resume %s: %w", path, err)
			}
			res.StartRound = ck.Round + 1
			if ck.BestParams != nil {
				bestSet = true
				res.BestScore = ck.BestScore
				bestParams = ck.BestParams
			}
			logf("resumed from %s (round %d, %d params)", path, ck.Round, len(ck.Params))
		}
	}

	gauges := newTrainGauges(cfg.Obs)

	var mw *metricsWriter
	if cfg.MetricsPath != "" {
		var err error
		if mw, err = newMetricsWriter(cfg.MetricsPath); err != nil {
			return nil, err
		}
		defer mw.Close()
	}

	// Persistent per-worker replicas; weights are broadcast each round.
	// Replicas are load-bearing, not just a cache-warmth optimization:
	// ActorCritic carries reusable forward/backward scratch, so a network
	// must never be shared across goroutines.
	replicas := make([]*nn.ActorCritic, workers)
	for w := range replicas {
		replicas[w] = net.Clone()
	}

	for round := res.StartRound; round < totalRounds; round++ {
		start := time.Now()
		epLo := round * workers
		epHi := epLo + workers
		if epHi > cfg.Episodes {
			epHi = cfg.Episodes
		}

		snapshot := net.Params()
		rollouts := make([]*rl.Buffer, epHi-epLo)
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(local *nn.ActorCritic) {
				defer wg.Done()
				if err := local.SetParams(snapshot); err != nil {
					panic(err) // replicas are clones of net; cannot mismatch
				}
				for idx := range jobs {
					ep := epLo + idx
					rollouts[idx] = env.Collect(ep, cfg.Seed+int64(ep), local)
				}
			}(replicas[w])
		}
		for idx := range rollouts {
			jobs <- idx
		}
		close(jobs)
		wg.Wait()

		merged := rl.Merge(rollouts...)
		meanReward := merged.MeanReward()
		transitions := merged.Len()
		// Every episode's final transition is marked Done, so no
		// bootstrap value is needed at the merge boundary.
		ts := learner.Train(merged, 0)

		wall := time.Since(start)
		rs := RoundStats{
			Round:       round,
			Episodes:    epHi - epLo,
			Transitions: transitions,
			PolicyLoss:  ts.PolicyLoss,
			ValueLoss:   ts.ValueLoss,
			Entropy:     ts.Entropy,
			ApproxKL:    ts.ApproxKL,
			MeanReward:  meanReward,
			WallMs:      float64(wall.Microseconds()) / 1e3,
		}
		if wall > 0 {
			rs.TransPerSec = float64(transitions) / wall.Seconds()
		}

		final := round == totalRounds-1
		if env.Eval != nil && cfg.EvalEvery > 0 && ((round+1)%cfg.EvalEvery == 0 || final) {
			probe := net.Clone()
			score := env.Eval(cfg.Seed+evalSeedOffset, probe)
			rs.EvalScore = &score
			if !bestSet || score > res.BestScore {
				bestSet = true
				res.BestScore = score
				bestParams = net.Params()
				rs.Best = true
			}
		}

		if cfg.CheckpointDir != "" && ((round+1)%ckEvery == 0 || final) {
			ck := &checkpoint{
				Round:      round,
				Seed:       cfg.Seed,
				Workers:    workers,
				Params:     net.Params(),
				BestScore:  res.BestScore,
				BestParams: bestParams,
			}
			if _, err := save(cfg.CheckpointDir, ck); err != nil {
				return nil, err
			}
		}
		if mw != nil {
			if err := mw.write(rs); err != nil {
				return nil, err
			}
		}
		gauges.update(rs, res.BestScore)
		res.Rounds = append(res.Rounds, rs)
		logf("round %d/%d: %d eps, %d steps, reward %.4f, kl %.5f, %.0f steps/s",
			round+1, totalRounds, rs.Episodes, rs.Transitions, rs.MeanReward, rs.ApproxKL, rs.TransPerSec)
	}

	if bestSet {
		best := net.Clone()
		if err := best.SetParams(bestParams); err != nil {
			return nil, err
		}
		res.Best = best
	}
	return res, nil
}
