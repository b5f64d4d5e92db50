// Command fleettrain pretrains the FleetIO PPO model offline on the
// held-out workloads (§3.8) and writes it to a file for fleetbench and the
// examples to load. Each round collects -workers episodes on parallel
// simulators for one PPO update, so the model depends on -workers as on
// -seed; -checkpoint-dir makes the run killable and resumable (with the same
// -workers and -seed), and -metrics records the training trajectory as
// JSONL.
//
// Usage:
//
//	fleettrain [-episodes N] [-episode-seconds S] [-workers W]
//	           [-checkpoint-dir DIR] [-resume] [-metrics FILE]
//	           [-out model.gob]
package main

import (
	"flag"
	"log"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/sim"
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
		Seed:            *seed,
		Episodes:        *episodes,
		EpisodeDuration: sim.Time(*epSeconds * 1e9),
		Window:          sim.Time(*windowMs) * sim.Millisecond,
		LR:              *lr,
		Workers:         *workers,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		Resume:          *resume,
		MetricsPath:     *metrics,
		EvalEvery:       *evalEvery,
		Logf:            log.Printf,
		Obs:             reg,
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
