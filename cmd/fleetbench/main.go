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
// paper figure, or one of the faults/fleet/tiers/workloads scenarios.
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
// -fig fleet runs the rack-scale scenario — -fleet N devices (default 64)
// under one virtual clock, comparing the placement baselines with fleet
// admission and cold migration live.
//
// -fig tiers runs the hybrid-rack scenario — -fleet N devices (default 8)
// split into a fast SLC-like class and a dense QLC-like class, comparing
// static-pin, adaptive-watermark, and learned promote/demote placement on
// latency-class tail latency at matched capacity.
//
// -fig workloads sweeps the temporal-realism ladder (steady, diurnal,
// bursty, trace replay) plus a cohort-churn rack with live traffic typing
// (see docs/WORKLOADS.md). -workload overlays one of those shapes on the
// other figures' runs; -trace substitutes a recorded block trace (binary
// or CSV) for the synthetic replay source.
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
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleetbench: ")
	scenarios := harness.Scenarios()
	names := make([]string, len(scenarios))
	for i, sc := range scenarios {
		names[i] = sc.Name
	}
	shared := harness.SharedFlags(flag.CommandLine)
	fig := flag.String("fig", "all", "figure to regenerate: "+strings.Join(names, ", "))
	warmup := flag.Float64("warmup", 4, "virtual warmup seconds per run")
	windowMs := flag.Int("window", 250, "decision window in milliseconds")
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

	// The workloads figure sweeps every shape itself; elsewhere a supplied
	// trace implies the replay shape.
	opt, srv, err := shared(*fig != "workloads")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	opt.Warmup = sim.Time(*warmup * 1e9)
	opt.Window = sim.Time(*windowMs) * sim.Millisecond

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
