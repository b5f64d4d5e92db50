// Command fleetsim runs a single collocation experiment and prints the
// per-tenant outcome — the quickest way to poke at the simulator.
//
// Usage:
//
//	fleetsim -mix YCSB,TeraSort -policy fleetio -seconds 10
//	fleetsim -http :8080 -decisions decisions.jsonl
//	fleetsim -workload bursty -seconds 10
//	fleetsim -trace trace.bin -seconds 10
//	fleetsim -fleet 64 -placement least-loaded -seconds 4
//
// With -http the run exports live telemetry on /metrics (Prometheus text
// format) and the pprof handlers on /debug/pprof/, and keeps serving after
// the results print until interrupted. -decisions writes every recorded
// decision event as JSONL (see docs/OBSERVABILITY.md for both schemas).
//
// -workload overlays a temporal shape (steady, diurnal, bursty, or replay)
// on every tenant's arrival process; -trace replays a recorded block trace
// (binary or CSV, converted on the fly — see docs/WORKLOADS.md) through
// each tenant instead of the synthetic generators. SLO calibration always
// runs on the steady shape, matching §3.3.1.
//
// -parallel bounds the worker pool: independent harness runs in flight at
// once, or, with -fleet, device shards advanced concurrently per epoch
// (0 = one per CPU, 1 = sequential; output is byte-identical either way).
//
// -faults injects deterministic NAND failures into the measured run:
// "light", "heavy", or a k=v spec (see internal/fault.ParseSpec).
//
// -fleet N switches to the rack-scale simulation: N devices under one
// virtual clock with fleet admission and cold migration, the placement
// baseline chosen by -placement (least-loaded, round-robin, or hash).
//
// -tiers (with -fleet) makes the rack hybrid: a fast SLC-like device
// class plus a dense QLC-like class, with promote/demote driven by
// -tier-policy (static-pin, watermark, or learned).
//
// A flag the chosen mode does not read is an error, not a no-op: a rack
// takes no -mix, -policy, -faults, -workload, -trace or -decisions; a
// single device takes no -tiers, -tier-policy or -placement; a hybrid rack
// takes no -placement, and a homogeneous one no -tier-policy.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"

	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/obs"
)

// flags is fleetsim's command line: the flags shared with fleetbench and
// its own.
type flags struct {
	shared                                        func(traceImpliesReplay bool) (harness.Options, *obs.Server, error)
	mix, policy, decisions, placement, tierPolicy *string
	tiers                                         *bool
}

// declareFlags declares fleetsim's flags on fs.
func declareFlags(fs *flag.FlagSet) flags {
	return flags{
		shared:     harness.SharedFlags(fs),
		mix:        fs.String("mix", "YCSB,TeraSort", "comma-separated workload names"),
		policy:     fs.String("policy", "fleetio", "hardware | software | adaptive | ssdkeeper | fleetio"),
		decisions:  fs.String("decisions", "", "write decision events to this JSONL file"),
		placement:  fs.String("placement", "least-loaded", "fleet placement baseline: least-loaded, round-robin, or hash (with -fleet)"),
		tiers:      fs.Bool("tiers", false, "make the -fleet rack hybrid (SLC-like + QLC-like device classes) with promote/demote placement"),
		tierPolicy: fs.String("tier-policy", "learned", "tier promote/demote policy: static-pin, watermark, or learned (with -tiers)"),
	}
}

// checkMode rejects a flag set on fs that the run's mode ignores, naming
// the flag; fs must be parsed.
func checkMode(fs *flag.FlagSet, tiers bool) error {
	rack := fs.Lookup("fleet").Value.(flag.Getter).Get().(int) > 0
	mode, ignored := "a single device", []string{"tiers", "tier-policy", "placement"}
	switch {
	case rack && tiers:
		mode, ignored = "a hybrid rack (-tiers)", []string{"mix", "policy", "faults", "workload", "trace", "decisions", "placement"}
	case rack:
		mode, ignored = "a rack (-fleet)", []string{"mix", "policy", "faults", "workload", "trace", "decisions", "tier-policy"}
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range ignored {
		if set[name] {
			return fmt.Errorf("-%s does not apply to %s", name, mode)
		}
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleetsim: ")
	f := declareFlags(flag.CommandLine)
	flag.Parse()
	if err := checkMode(flag.CommandLine, *f.tiers); err != nil {
		log.Fatal(err)
	}

	opt, srv, err := f.shared(true)
	if err != nil {
		log.Fatal(err)
	}
	if opt.FleetDevices > 0 {
		runFleet(opt, *f.placement, *f.tiers, *f.tierPolicy)
	} else {
		runDevice(opt, *f.mix, *f.policy, *f.decisions)
	}
	if srv != nil {
		// Keep the endpoint alive so the final metric values stay
		// scrapeable; interrupt to exit.
		log.Printf("run finished; serving on http://%s until interrupted", srv.Addr())
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
		_ = srv.Close()
	}
}

// runFleet runs the rack-scale simulation and prints its roll-up.
func runFleet(opt harness.Options, placement string, tiers bool, tierPolicy string) {
	pk, err := fleet.ParsePlacement(placement)
	if err != nil {
		log.Fatalf("parsing -placement: %v", err)
	}
	var st fleet.Stats
	if tiers {
		tp, err := fleet.ParseTierPolicy(tierPolicy)
		if err != nil {
			log.Fatalf("parsing -tier-policy: %v", err)
		}
		log.Printf("running %d-device hybrid fleet, %s tier policy...", opt.FleetDevices, tp)
		st = harness.TierScenario(tp, opt)
	} else {
		log.Printf("running %d-device fleet, %s placement...", opt.FleetDevices, pk)
		st = harness.FleetScenario(pk, opt)
	}
	st.Render(os.Stdout)
}

// runDevice calibrates and measures one collocation on a single device and
// prints the per-tenant table.
func runDevice(opt harness.Options, mixFlag, policy, decisionsPath string) {
	kinds := map[string]harness.PolicyKind{
		"hardware":  harness.PolHardware,
		"software":  harness.PolSoftware,
		"adaptive":  harness.PolAdaptive,
		"ssdkeeper": harness.PolSSDKeeper,
		"fleetio":   harness.PolFleetIO,
	}
	kind, ok := kinds[strings.ToLower(policy)]
	if !ok {
		log.Fatalf("unknown policy %q", policy)
	}
	mix := harness.MixSpec{Label: mixFlag, Workloads: strings.Split(mixFlag, ",")}
	if kind == harness.PolFleetIO {
		opt = harness.WithPretrained(opt)
	}
	if decisionsPath != "" && opt.Obs == nil {
		opt.Obs = obs.NewObserver()
	}

	log.Printf("calibrating SLOs (hardware-isolated run)...")
	slos := harness.Calibrate(mix, opt)
	log.Printf("running %s on %s...", kind, mixFlag)
	run := harness.Measure(mix, kind, slos, opt)
	run.Result.WriteTable(os.Stdout)
	if opt.Faults != nil {
		fst := run.FaultStats()
		fmt.Printf("faults: pfail=%d efail=%d readRetryOps=%d timeouts=%d | retired=%d remapped=%d hostRetries=%d gcRetries=%d gcSkips=%d (balanced=%v)\n",
			fst.Device.ProgramFails, fst.Device.EraseFails, fst.Device.ReadRetryOps, fst.Device.ChipTimeouts,
			fst.Retired, fst.Remapped, fst.WriteRetries, fst.GCRetryPrograms, fst.GCRetrySkips, fst.Balanced())
	}

	if decisionsPath != "" {
		f, err := os.Create(decisionsPath)
		if err != nil {
			log.Fatalf("creating -decisions file: %v", err)
		}
		rec := opt.Obs.Recorder()
		if err := rec.WriteJSONL(f); err != nil {
			log.Fatalf("writing -decisions file: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("closing -decisions file: %v", err)
		}
		log.Printf("wrote %d decision events to %s", rec.Len(), decisionsPath)
	}
}
