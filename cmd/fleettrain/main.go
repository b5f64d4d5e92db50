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
// hyperparameters keep their defaults (rl.DefaultConfig). A value
// harness.PretrainConfig.Validate rejects (a non-positive learning rate, an
// episode under 1 ns, …) fails before training, naming the flag.
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
	"log"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/trainer"
)

// declareConfig declares on fs the flags that fill a harness.PretrainConfig
// and returns the function that, once fs is parsed, resolves them into one
// and validates it.
func declareConfig(fs *flag.FlagSet) func() (harness.PretrainConfig, error) {
	pc := harness.PretrainConfig{Config: trainer.Config{Logf: log.Printf}}
	fs.IntVar(&pc.Episodes, "episodes", 12, "pretraining episodes")
	epSeconds := fs.Float64("episode-seconds", 30, "virtual seconds per episode")
	windowMs := fs.Int("window", 100, "decision window in milliseconds")
	fs.Float64Var(&pc.RL.LR, "lr", 1e-3, "pretraining learning rate")
	fs.Int64Var(&pc.Seed, "seed", 11, "seed")
	fs.IntVar(&pc.Workers, "workers", 4, "episodes per PPO update, collected in parallel (the model depends on it; -resume needs the same -workers and -seed)")
	fs.StringVar(&pc.CheckpointDir, "checkpoint-dir", "", "directory for atomic training checkpoints (enables resume)")
	fs.IntVar(&pc.CheckpointEvery, "checkpoint-every", 1, "rounds between checkpoints")
	fs.BoolVar(&pc.Resume, "resume", false, "resume from the newest readable checkpoint in -checkpoint-dir")
	fs.StringVar(&pc.MetricsPath, "metrics", "", "append per-round training telemetry to this JSONL file")
	fs.IntVar(&pc.EvalEvery, "eval-every", 1, "rounds between held-out eval episodes (0 disables best-model gating)")

	return func() (harness.PretrainConfig, error) {
		var err error
		if pc.EpisodeDuration, err = harness.FlagSeconds("-episode-seconds", *epSeconds); err == nil {
			pc.Window, err = harness.FlagSeconds("-window", float64(*windowMs)/1e3)
		}
		if err == nil {
			err = pc.Validate()
		}
		return pc, err
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleettrain: ")
	config := declareConfig(flag.CommandLine)
	out := flag.String("out", "fleetio_model.gob", "output model file")
	httpAddr := flag.String("http", "", "serve live training gauges on /metrics and pprof on /debug/pprof/")
	flag.Parse()

	pc, err := config()
	if err != nil {
		log.Fatal(err)
	}
	if *httpAddr != "" {
		pc.Obs = obs.NewRegistry()
		srv, err := obs.Serve(*httpAddr, pc.Obs)
		if err != nil {
			log.Fatalf("serving -http: %v", err)
		}
		defer srv.Close()
		log.Printf("observability on http://%s (/metrics, /debug/pprof/)", srv.Addr())
	}

	log.Printf("pretraining %d episodes x %.0fs virtual on held-out workloads (%d workers)...",
		pc.Episodes, float64(pc.EpisodeDuration)/1e9, pc.Workers)
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
