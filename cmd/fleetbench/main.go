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

	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/harness"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleetbench: ")
	scenarios := harness.Scenarios()
	names := make([]string, len(scenarios))
	for i, sc := range scenarios {
		names[i] = sc.Name
	}
	fig := flag.String("fig", "all", "figure to regenerate: "+strings.Join(names, ", "))
	seconds := flag.Float64("seconds", 8, "measured virtual seconds per run")
	warmup := flag.Float64("warmup", 4, "virtual warmup seconds per run")
	windowMs := flag.Int("window", 250, "decision window in milliseconds")
	seed := flag.Int64("seed", 1, "simulation seed")
	model := flag.String("model", "", "pretrained model file (from fleettrain); pretrains in-process when empty")
	httpAddr := flag.String("http", "", "serve live run telemetry on /metrics and pprof on /debug/pprof/")
	parallel := flag.Int("parallel", 0, "worker pool size: experiment runs, or fleet shards per epoch (0 = one per CPU, 1 = sequential)")
	faults := flag.String("faults", "", "NAND fault injection: off, light, heavy, or k=v list (pfail=,efail=,rretry=,tmo=,maxretries=,rstep=,stall=,seed=)")
	fleetN := flag.Int("fleet", 0, "device count for the rack scenarios (0 = 64 for fleet, 8 for tiers and the workloads cohort rack)")
	workloadFlag := flag.String("workload", "steady", "temporal arrival shape: steady, diurnal, bursty, or replay")
	traceFile := flag.String("trace", "", "block trace (binary or CSV) used as the replay source")
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

	faultCfg, err := fault.ParseSpec(*faults)
	if err != nil {
		log.Fatalf("parsing -faults: %v", err)
	}
	shape, err := workload.ParseShape(*workloadFlag)
	if err != nil {
		log.Fatalf("parsing -workload: %v", err)
	}

	if *model != "" {
		net, err := nn.LoadFile(*model)
		if err != nil {
			log.Fatalf("loading model: %v", err)
		}
		harness.SetInjectedModel(net)
		log.Printf("loaded pretrained model %s (%d params)", *model, net.NumParams())
	}

	opt := harness.DefaultOptions()
	opt.Seed = *seed
	opt.Duration = sim.Time(*seconds * 1e9)
	opt.Warmup = sim.Time(*warmup * 1e9)
	opt.Window = sim.Time(*windowMs) * sim.Millisecond
	opt.Workers = *parallel
	if faultCfg.Enabled() {
		opt.Faults = &faultCfg
		log.Printf("injecting NAND faults: %s", *faults)
	}
	opt.FleetDevices = *fleetN
	opt.WorkloadShape = shape
	if *traceFile != "" {
		recs, err := trace.LoadFile(*traceFile, flash.DefaultConfig().PageSize)
		if err != nil {
			log.Fatalf("loading -trace: %v", err)
		}
		opt.ReplayRecords = recs
		if *fig != "workloads" {
			// The workloads figure sweeps every shape itself; elsewhere a
			// supplied trace implies the replay shape.
			opt.WorkloadShape = workload.ShapeReplay
		}
		log.Printf("replaying %d trace records from %s", len(recs), *traceFile)
	}
	if sc.Pretrained {
		opt = harness.WithPretrained(opt)
	}

	if *httpAddr != "" {
		// One observer serves every figure run; with parallel runs in
		// flight /metrics shows their merged live gauges.
		opt.Obs = obs.NewObserver()
		srv, err := obs.Serve(*httpAddr, opt.Obs.Registry())
		if err != nil {
			log.Fatalf("serving -http: %v", err)
		}
		defer srv.Close()
		log.Printf("observability on http://%s (/metrics, /debug/pprof/)", srv.Addr())
	}

	sc.Render(os.Stdout, opt)
}
