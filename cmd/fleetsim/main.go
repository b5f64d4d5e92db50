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
//	fleetsim -fleet 8 -faults light -workload bursty -seconds 4
//	fleetsim -fleet 8 -tier-policy learned -seconds 4
//
// With -http the run exports live telemetry on /metrics (Prometheus text
// format) and the pprof handlers on /debug/pprof/, and keeps serving after
// the results print until interrupted. -decisions writes every recorded
// decision event as JSONL (see docs/OBSERVABILITY.md for both schemas).
//
// -workload overlays a temporal shape (steady, diurnal, bursty, or replay)
// on every tenant's arrival process; -trace replays a recorded block trace
// (binary or CSV, converted on the fly — see docs/WORKLOADS.md) through
// each tenant instead of the synthetic generators, so it combines only with
// the default -workload steady or an explicit replay: -trace with -workload
// diurnal or bursty fails before any run, naming both flags. SLO
// calibration always runs on the steady shape, matching §3.3.1.
//
// -parallel bounds the worker pool: independent harness runs in flight at
// once, or, with -fleet, device shards advanced concurrently per epoch
// (0 = one per CPU, 1 = sequential; output is byte-identical either way).
//
// -faults injects deterministic NAND failures into the measured run:
// "light", "heavy", or a k=v spec (see internal/fault.ParseSpec).
//
// -fleet N (N >= 2) switches to the rack-scale simulation: N devices under
// one virtual clock with fleet admission and cold migration, the placement
// baseline chosen by -placement (least-loaded, round-robin, or hash). A
// rack is N of the device a single run simulates, so -faults, -workload
// and -trace apply to it as they do to one device: every shard injects
// faults from its own seed, and every tenant arrives under the shape (and
// replays the trace) a single run's tenant would.
//
// -tier-policy (with -fleet) makes the rack hybrid: a fast SLC-like tier
// on a quarter of the devices (at least one) and a dense QLC-like tier on
// the rest, with promote/demote driven by the policy (static-pin,
// watermark, or learned).
//
// A flag that names the other mode's structure is an error, not a no-op: a
// rack has no single mix, policy or decision stream, so it takes no -mix,
// -policy or -decisions; a single device takes no -tier-policy or
// -placement; a hybrid rack takes no -placement. A -mix the device cannot
// run (an unknown workload, or a tenant count that does not divide its
// channels) fails before the run, as does a value harness.Options.Validate
// rejects.
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
	shared                                        func() (harness.Options, *obs.Server, error)
	mix, policy, decisions, placement, tierPolicy *string
}

// declareFlags declares fleetsim's flags on fs.
func declareFlags(fs *flag.FlagSet) flags {
	return flags{
		shared:     harness.SharedFlags(fs),
		mix:        fs.String("mix", "YCSB,TeraSort", "comma-separated workload names"),
		policy:     fs.String("policy", "fleetio", "hardware | software | adaptive | ssdkeeper | fleetio"),
		decisions:  fs.String("decisions", "", "write decision events to this JSONL file"),
		placement:  fs.String("placement", "least-loaded", "fleet placement baseline: least-loaded, round-robin, or hash (with -fleet)"),
		tierPolicy: fs.String("tier-policy", "", "make the -fleet rack hybrid (SLC-like + QLC-like tiers) under this promote/demote policy: static-pin, watermark, or learned"),
	}
}

// check rejects, naming the flag, Options that Validate rejects, a
// fleetsim-only flag set on fs that names the other mode's structure, and a
// -mix one device cannot run; fs must be parsed and opt resolved from it.
func check(fs *flag.FlagSet, f flags, opt harness.Options) error {
	if err := opt.Validate(); err != nil {
		return err
	}
	switch {
	case opt.FleetDevices > 0 && *f.tierPolicy != "":
		return rejectSet(fs, "a hybrid rack (-tier-policy)", "mix", "policy", "decisions", "placement")
	case opt.FleetDevices > 0:
		return rejectSet(fs, "a rack (-fleet)", "mix", "policy", "decisions")
	}
	if err := rejectSet(fs, "a single device", "tier-policy", "placement"); err != nil {
		return err
	}
	if err := mixOf(*f.mix).Check(opt); err != nil {
		return fmt.Errorf("-mix %s: %w", *f.mix, err)
	}
	return nil
}

// rejectSet returns an error naming the first of names set on the parsed
// fs: that flag does not apply to mode (e.g. "a rack (-fleet)").
func rejectSet(fs *flag.FlagSet, mode string, names ...string) error {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range names {
		if set[name] {
			return fmt.Errorf("-%s does not apply to %s", name, mode)
		}
	}
	return nil
}

// mixOf is the mix a -mix value names.
func mixOf(mix string) harness.MixSpec {
	return harness.MixSpec{Label: mix, Workloads: strings.Split(mix, ",")}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleetsim: ")
	f := declareFlags(flag.CommandLine)
	flag.Parse()
	opt, srv, err := f.shared()
	if err == nil {
		err = check(flag.CommandLine, f, opt)
	}
	if err != nil {
		log.Fatal(err)
	}
	if opt.FleetDevices > 0 {
		runFleet(opt, *f.placement, *f.tierPolicy)
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
func runFleet(opt harness.Options, placement, tierPolicy string) {
	pk, err := fleet.ParsePlacement(placement)
	if err != nil {
		log.Fatalf("parsing -placement: %v", err)
	}
	var st fleet.Stats
	if tierPolicy != "" {
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
	mix := mixOf(mixFlag)
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
		fmt.Printf("faults: pfail=%d efail=%d readRetryOps=%d timeouts=%d | retired=%d remapped=%d hostRetries=%d gcRetries=%d gcSkips=%d\n",
			fst.Device.ProgramFails, fst.Device.EraseFails, fst.Device.ReadRetryOps, fst.Device.ChipTimeouts,
			fst.Retired, fst.Remapped, fst.WriteRetries, fst.GCRetryPrograms, fst.GCRetrySkips)
		if failing := obs.Failing(fst.Invariants()); failing != "" {
			fmt.Printf("!! invariants fail: %s\n", failing)
		}
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
