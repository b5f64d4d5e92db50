// Command fleettrain pretrains the FleetIO PPO model offline on the
// held-out workloads (§3.8) and writes it to a file for fleetbench and the
// examples to load. Each round collects -workers episodes on parallel
// simulators for one PPO update, so the model depends on -workers as on
// -seed; -checkpoint-dir makes the run killable and resumable (with the same
// -workers and -seed), and -metrics records the training trajectory as
// JSONL.
//
// The flags fill one harness.PretrainConfig: -episode-seconds and -window
// shape each episode, and every other flag sets the trainer knob of the
// same name. -lr sets the learning rate alone; the other PPO
// hyperparameters keep their defaults (rl.DefaultConfig). A learning rate,
// episode length or window that is not positive (or not finite) is
// rejected before training, naming the flag.
//
// Usage:
//
//	fleettrain [-episodes N] [-episode-seconds S] [-window MS] [-lr R]
//	           [-seed N] [-workers W] [-checkpoint-dir DIR]
//	           [-checkpoint-every N] [-resume] [-metrics FILE]
//	           [-eval-every N] [-http ADDR] [-out model.gob]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/trainer"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleettrain: ")
	episodes := flag.Int("episodes", 12, "pretraining episodes")
	epSeconds := flag.Float64("episode-seconds", 30, "virtual seconds per episode")
	windowMs := flag.Int("window", 100, "decision window in milliseconds")
	lr := flag.Float64("lr", 1e-3, "pretraining learning rate")
	seed := flag.Int64("seed", 11, "seed")
	workers := flag.Int("workers", 4, "episodes per PPO update, collected in parallel (the model depends on it; -resume needs the same -workers and -seed)")
	ckptDir := flag.String("checkpoint-dir", "", "directory for atomic training checkpoints (enables resume)")
	ckptEvery := flag.Int("checkpoint-every", 1, "rounds between checkpoints")
	resume := flag.Bool("resume", false, "resume from the newest readable checkpoint in -checkpoint-dir")
	metrics := flag.String("metrics", "", "append per-round training telemetry to this JSONL file")
	evalEvery := flag.Int("eval-every", 1, "rounds between held-out eval episodes (0 disables best-model gating)")
	out := flag.String("out", "fleetio_model.gob", "output model file")
	httpAddr := flag.String("http", "", "serve live training gauges on /metrics and pprof on /debug/pprof/")
	flag.Parse()

	episode, window, err := shape(*lr, *epSeconds, *windowMs)
	if err != nil {
		log.Fatal(err)
	}

	var reg *obs.Registry
	if *httpAddr != "" {
		reg = obs.NewRegistry()
		srv, err := obs.Serve(*httpAddr, reg)
		if err != nil {
			log.Fatalf("serving -http: %v", err)
		}
		defer srv.Close()
		log.Printf("observability on http://%s (/metrics, /debug/pprof/)", srv.Addr())
	}

	pc := harness.PretrainConfig{
		Config: trainer.Config{
			Seed:            *seed,
			Workers:         *workers,
			Episodes:        *episodes,
			RL:              rl.Config{LR: *lr},
			EvalEvery:       *evalEvery,
			CheckpointDir:   *ckptDir,
			CheckpointEvery: *ckptEvery,
			Resume:          *resume,
			MetricsPath:     *metrics,
			Logf:            log.Printf,
			Obs:             reg,
		},
		EpisodeDuration: episode,
		Window:          window,
	}
	log.Printf("pretraining %d episodes x %.0fs virtual on held-out workloads (%d workers)...",
		pc.Episodes, *epSeconds, *workers)
	res, err := harness.PretrainRun(pc, core.ModeFull)
	if err != nil {
		log.Fatalf("training: %v", err)
	}
	net := res.Final
	which := "final"
	if res.Best != nil {
		net = res.Best
		which = "best"
		log.Printf("eval-gated best model: mean held-out reward %.4f", res.BestScore)
	}
	if err := net.SaveFile(*out); err != nil {
		log.Fatalf("saving model: %v", err)
	}
	data, err := net.Encode()
	if err != nil {
		log.Fatalf("encoding model for size report: %v", err)
	}
	log.Printf("wrote %s model to %s (%d params, %d bytes)", which, *out, net.NumParams(), len(data))
}

// shape checks -lr and resolves -episode-seconds and -window (milliseconds),
// rejecting, naming the flag, a value that trains nothing or trains on
// something else: a learning rate at or below zero or not finite (zero would
// fall back to rl's default), an episode of no virtual time (zero steps,
// reward 0), an episode past sim.Time's range (it wraps), and a window at or
// below zero.
func shape(lr, epSeconds float64, windowMs int) (episode, window sim.Time, err error) {
	if !(lr > 0) || math.IsInf(lr, 1) { // NaN included
		return 0, 0, fmt.Errorf("-lr %v: must be > 0 and finite", lr)
	}
	if !(epSeconds > 0) { // NaN included
		return 0, 0, fmt.Errorf("-episode-seconds %v: must be > 0", epSeconds)
	}
	if episode, err = harness.FlagSeconds("-episode-seconds", epSeconds); err != nil {
		return 0, 0, err
	}
	if windowMs <= 0 {
		return 0, 0, fmt.Errorf("-window %d: must be > 0", windowMs)
	}
	return episode, sim.Time(windowMs) * sim.Millisecond, nil
}
