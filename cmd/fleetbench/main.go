// Command fleetbench regenerates every measured table and figure of the
// FleetIO paper (§2.2 and §4) on the simulated platform.
//
// Usage:
//
//	fleetbench [-fig name] [-seconds N] [-model file] [-parallel N]
//	           [-faults spec] [-fleet N] [-workload shape] [-trace file]
//
// -fig takes any name in the harness scenario table (harness.Scenarios;
// `fleetbench -h` lists them): a paper figure number, "all" for every
// paper figure, or one of the faults/fleet/tiers/workloads/claims scenarios.
// Figures 10–13 share one set of runs and are printed together.
//
// -parallel bounds the worker pool: independent experiment runs in flight
// at once, or, for the rack scenarios, device shards advanced concurrently
// per epoch (0 = one per CPU, 1 = sequential; results are byte-identical
// at any worker count).
//
// -faults injects deterministic NAND failures into the measured runs:
// "light", "heavy", or a k=v spec (see internal/fault.ParseSpec).
//
// A value no run can honour (harness.Options.Validate: a -seconds under
// 1 ns, a -fleet of 1, …) fails before any run, naming the flag.
//
// Every figure reads every shared flag, the rack figures included: each
// rack device injects -faults from its own seed, and each rack tenant
// arrives under -workload (and replays -trace) as a single run's tenant
// does. A figure that sweeps a flag overrides it on each rung of its
// ladder: -fig faults sets -faults per level, and -fig workloads sets
// -workload per shape and runs its cohort rack steady.
//
// -fig fleet runs the rack-scale scenario — -fleet N devices (default 64)
// under one virtual clock, comparing the placement baselines with fleet
// admission and cold migration live.
//
// -fig tiers runs the hybrid-rack scenario — -fleet N devices (default 8)
// split into a fast SLC-like class and a dense QLC-like class, comparing
// static-pin, adaptive-watermark, and learned promote/demote placement on
// latency-class tail latency at matched capacity.
//
// -fig claims judges the paper's claims — the paper rows of the harness's
// claims table — at EXPERIMENTS.md's budget (-seconds 6 -warmup 4) over
// seeds 1–8, and prints them as the markdown table EXPERIMENTS.md carries:
// the paper's value, the median over seeds with its range, the relation and
// whether it holds. It reads only -parallel and -model.
//
// -fig workloads sweeps the temporal-realism ladder (steady, diurnal,
// bursty, trace replay) plus a cohort-churn rack with live traffic typing
// (see docs/WORKLOADS.md). -workload overlays one of those shapes on the
// other figures' runs; -trace substitutes a recorded block trace (binary
// or CSV) for the synthetic replay source. It implies the replay shape, so
// -trace with -workload diurnal or bursty fails before any run, naming
// both flags.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"repro/internal/harness"
	"repro/internal/nn"
	"repro/internal/obs"
)

// declareFlags declares on fs the flags shared with fleetsim, -warmup and
// -window, and returns the function that, once fs is parsed, resolves them
// into the Options every figure runs under and validates those.
func declareFlags(fs *flag.FlagSet) func() (harness.Options, *obs.Server, error) {
	shared := harness.SharedFlags(fs)
	warmup := fs.Float64("warmup", 4, "virtual warmup seconds per run")
	windowMs := fs.Int("window", 250, "decision window in milliseconds")
	return func() (harness.Options, *obs.Server, error) {
		opt, srv, err := shared()
		if err == nil {
			opt.Warmup, err = harness.FlagSeconds("-warmup", *warmup)
		}
		if err == nil {
			opt.Window, err = harness.FlagSeconds("-window", float64(*windowMs)/1e3)
		}
		if err == nil {
			err = opt.Validate()
		}
		return opt, srv, err
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleetbench: ")
	scenarios := harness.Scenarios()
	names := make([]string, len(scenarios))
	for i, sc := range scenarios {
		names[i] = sc.Name
	}
	options := declareFlags(flag.CommandLine)
	fig := flag.String("fig", "all", "figure to regenerate: "+strings.Join(names, ", "))
	model := flag.String("model", "", "pretrained model file (from fleettrain); pretrains in-process when empty")
	flag.Parse()

	if *fig == "11" || *fig == "12" || *fig == "13" {
		*fig = "10"
	}
	idx := slices.Index(names, *fig)
	if idx < 0 {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		flag.Usage()
		os.Exit(2)
	}
	sc := scenarios[idx]

	opt, srv, err := options()
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	if *model != "" {
		net, err := nn.LoadFile(*model)
		if err != nil {
			log.Fatalf("loading model: %v", err)
		}
		harness.SetInjectedModel(net)
		log.Printf("loaded pretrained model %s (%d params)", *model, net.NumParams())
	}
	if sc.Pretrained {
		opt = harness.WithPretrained(opt)
	}

	sc.Render(os.Stdout, opt)
}
