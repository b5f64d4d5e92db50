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
// -mix/-policy/-faults/-trace/-workload/-decisions apply only to
// single-device runs.
//
// -tiers (with -fleet) makes the rack hybrid: a fast SLC-like device
// class plus a dense QLC-like class, with promote/demote driven by
// -tier-policy (static-pin, watermark, or learned). -placement is
// ignored on hybrid racks.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"

	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleetsim: ")
	mixFlag := flag.String("mix", "YCSB,TeraSort", "comma-separated workload names")
	policy := flag.String("policy", "fleetio", "hardware | software | adaptive | ssdkeeper | fleetio")
	seconds := flag.Float64("seconds", 8, "measured virtual seconds")
	seed := flag.Int64("seed", 1, "seed")
	httpAddr := flag.String("http", "", "serve /metrics and /debug/pprof/ on this address (e.g. :8080)")
	decisionsPath := flag.String("decisions", "", "write decision events to this JSONL file")
	workloadFlag := flag.String("workload", "steady", "temporal arrival shape: steady, diurnal, bursty, or replay")
	traceFile := flag.String("trace", "", "replay this block trace (binary or CSV) through every tenant")
	parallel := flag.Int("parallel", 0, "worker pool size: harness runs, or fleet shards per epoch (0 = one per CPU, 1 = sequential)")
	faults := flag.String("faults", "", "NAND fault injection: off, light, heavy, or k=v list (pfail=,efail=,rretry=,tmo=,maxretries=,rstep=,stall=,seed=)")
	fleetN := flag.Int("fleet", 0, "run a rack-scale fleet of N devices instead of a single-device experiment")
	placement := flag.String("placement", "least-loaded", "fleet placement baseline: least-loaded, round-robin, or hash (with -fleet)")
	tiers := flag.Bool("tiers", false, "make the -fleet rack hybrid (SLC-like + QLC-like device classes) with promote/demote placement")
	tierPolicy := flag.String("tier-policy", "learned", "tier promote/demote policy: static-pin, watermark, or learned (with -tiers)")
	flag.Parse()

	faultCfg, err := fault.ParseSpec(*faults)
	if err != nil {
		log.Fatalf("parsing -faults: %v", err)
	}
	shape, err := workload.ParseShape(*workloadFlag)
	if err != nil {
		log.Fatalf("parsing -workload: %v", err)
	}

	if *fleetN > 0 {
		pk, err := fleet.ParsePlacement(*placement)
		if err != nil {
			log.Fatalf("parsing -placement: %v", err)
		}
		opt := harness.DefaultOptions()
		opt.Seed = *seed
		opt.Duration = sim.Time(*seconds * 1e9)
		opt.Workers = *parallel
		opt.FleetDevices = *fleetN
		var srv *obs.Server
		if *httpAddr != "" {
			opt.Obs = obs.NewObserver()
			var err error
			if srv, err = obs.Serve(*httpAddr, opt.Obs.Registry()); err != nil {
				log.Fatalf("serving -http: %v", err)
			}
			log.Printf("observability on http://%s (/metrics, /debug/pprof/)", srv.Addr())
		}
		var st fleet.Stats
		if *tiers {
			tp, err := fleet.ParseTierPolicy(*tierPolicy)
			if err != nil {
				log.Fatalf("parsing -tier-policy: %v", err)
			}
			log.Printf("running %d-device hybrid fleet, %s tier policy...", *fleetN, tp)
			st = harness.TierScenario(tp, opt)
		} else {
			log.Printf("running %d-device fleet, %s placement...", *fleetN, pk)
			st = harness.FleetScenario(pk, opt)
		}
		st.Render(os.Stdout)
		if srv != nil {
			log.Printf("run finished; serving on http://%s until interrupted", srv.Addr())
			ch := make(chan os.Signal, 1)
			signal.Notify(ch, os.Interrupt)
			<-ch
			_ = srv.Close()
		}
		return
	}

	kinds := map[string]harness.PolicyKind{
		"hardware":  harness.PolHardware,
		"software":  harness.PolSoftware,
		"adaptive":  harness.PolAdaptive,
		"ssdkeeper": harness.PolSSDKeeper,
		"fleetio":   harness.PolFleetIO,
	}
	kind, ok := kinds[strings.ToLower(*policy)]
	if !ok {
		log.Fatalf("unknown policy %q", *policy)
	}

	names := strings.Split(*mixFlag, ",")
	mix := harness.MixSpec{Label: *mixFlag, Workloads: names}
	opt := harness.DefaultOptions()
	opt.Seed = *seed
	opt.Duration = sim.Time(*seconds * 1e9)
	opt.Workers = *parallel
	opt.WorkloadShape = shape
	if *traceFile != "" {
		recs, err := trace.LoadFile(*traceFile, flash.DefaultConfig().PageSize)
		if err != nil {
			log.Fatalf("loading -trace: %v", err)
		}
		opt.ReplayRecords = recs
		opt.WorkloadShape = workload.ShapeReplay
		log.Printf("replaying %d trace records through every tenant", len(recs))
	}
	if faultCfg.Enabled() {
		opt.Faults = &faultCfg
		log.Printf("injecting NAND faults: %s", *faults)
	}
	if kind == harness.PolFleetIO {
		opt = harness.WithPretrained(opt)
	}

	var srv *obs.Server
	if *httpAddr != "" || *decisionsPath != "" {
		opt.Obs = obs.NewObserver()
	}
	if *httpAddr != "" {
		var err error
		if srv, err = obs.Serve(*httpAddr, opt.Obs.Registry()); err != nil {
			log.Fatalf("serving -http: %v", err)
		}
		log.Printf("observability on http://%s (/metrics, /debug/pprof/)", srv.Addr())
	}

	log.Printf("calibrating SLOs (hardware-isolated run)...")
	slos := harness.Calibrate(mix, opt)
	log.Printf("running %s on %s...", kind, *mixFlag)
	run := harness.Measure(mix, kind, slos, opt)
	res := run.Result

	fmt.Printf("policy: %s   SSD utilization: %.1f%% (p95 %.1f%%)\n", res.Policy, res.AvgUtil*100, res.P95Util*100)
	fmt.Printf("%-16s %-22s %12s %10s %10s %10s %10s\n",
		"workload", "class", "BW MB/s", "mean ms", "P95 ms", "P99 ms", "SLO vio")
	for _, t := range res.Tenants {
		fmt.Printf("%-16s %-22s %12.1f %10.2f %10.2f %10.2f %9.2f%%\n",
			t.Workload, t.Class.String(), t.BandwidthMBps, t.MeanMs, t.P95Ms, t.P99Ms, t.VioRate*100)
	}
	if opt.Faults != nil {
		fst := run.FaultStats()
		fmt.Printf("faults: pfail=%d efail=%d readRetryOps=%d timeouts=%d | retired=%d remapped=%d hostRetries=%d gcRetries=%d gcSkips=%d (balanced=%v)\n",
			fst.Device.ProgramFails, fst.Device.EraseFails, fst.Device.ReadRetryOps, fst.Device.ChipTimeouts,
			fst.Retired, fst.Remapped, fst.WriteRetries, fst.GCRetryPrograms, fst.GCRetrySkips, fst.Balanced())
	}

	if *decisionsPath != "" {
		f, err := os.Create(*decisionsPath)
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
		log.Printf("wrote %d decision events to %s", rec.Len(), *decisionsPath)
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
