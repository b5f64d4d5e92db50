package harness

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// SharedFlags declares on fs the eight flags fleetsim and fleetbench have
// in common (-seconds -seed -parallel -faults -fleet -workload -trace
// -http) and returns the function that, once fs is parsed, resolves them
// onto DefaultOptions: the Options, and the live -http server (nil without
// -http; the caller closes it). A -trace file implies the replay shape
// unless traceImpliesReplay is false (the workloads figure sweeps every
// shape itself and only takes the records).
func SharedFlags(fs *flag.FlagSet) func(traceImpliesReplay bool) (Options, *obs.Server, error) {
	seconds := fs.Float64("seconds", 8, "measured virtual seconds per run")
	seed := fs.Int64("seed", 1, "simulation seed")
	parallel := fs.Int("parallel", 0, "worker pool size: experiment runs, or fleet shards per epoch (0 = one per CPU, 1 = sequential)")
	faults := fs.String("faults", "", "NAND fault injection: off, light, heavy, or k=v list (pfail=,efail=,rretry=,tmo=,maxretries=,rstep=,stall=,seed=)")
	fleetN := fs.Int("fleet", 0, "rack size in devices (fleetsim: run a rack instead of one device; fleetbench: 0 = each rack scenario's default)")
	shapeName := fs.String("workload", "steady", "temporal arrival shape: steady, diurnal, bursty, or replay")
	traceFile := fs.String("trace", "", "block trace (binary or CSV) replayed through every tenant")
	httpAddr := fs.String("http", "", "serve /metrics and /debug/pprof/ on this address (e.g. :8080)")

	return func(traceImpliesReplay bool) (Options, *obs.Server, error) {
		opt := DefaultOptions()
		if !(*seconds > 0) {
			return opt, nil, fmt.Errorf("-seconds %v: must be > 0", *seconds)
		}
		if *parallel < 0 {
			return opt, nil, fmt.Errorf("-parallel %d: must be >= 0", *parallel)
		}
		if *fleetN < 0 {
			return opt, nil, fmt.Errorf("-fleet %d: must be >= 0", *fleetN)
		}
		opt.Seed = *seed
		opt.Duration = sim.Time(*seconds * 1e9)
		opt.Workers = *parallel
		opt.FleetDevices = *fleetN

		faultCfg, err := fault.ParseSpec(*faults)
		if err != nil {
			return opt, nil, fmt.Errorf("parsing -faults: %w", err)
		}
		if faultCfg.Enabled() {
			opt.Faults = &faultCfg
			log.Printf("injecting NAND faults: %s", *faults)
		}
		if opt.WorkloadShape, err = workload.ParseShape(*shapeName); err != nil {
			return opt, nil, fmt.Errorf("parsing -workload: %w", err)
		}
		if *traceFile != "" {
			if opt.ReplayRecords, err = trace.LoadFile(*traceFile, flash.DefaultConfig().PageSize); err != nil {
				return opt, nil, fmt.Errorf("loading -trace: %w", err)
			}
			// A binary trace is read as written; hold it to the replay rules
			// here, before a run panics on it.
			if err := workload.ReplayProfile(*traceFile, opt.ReplayRecords, true).Validate(); err != nil {
				return opt, nil, fmt.Errorf("loading -trace: %w", err)
			}
			if traceImpliesReplay {
				opt.WorkloadShape = workload.ShapeReplay
			}
			log.Printf("replaying %d trace records from %s", len(opt.ReplayRecords), *traceFile)
		}
		if *httpAddr == "" {
			return opt, nil, nil
		}
		// One observer serves every run; with parallel runs in flight
		// /metrics shows their merged live gauges.
		opt.Obs = obs.NewObserver()
		srv, err := obs.Serve(*httpAddr, opt.Obs.Registry())
		if err != nil {
			return opt, nil, fmt.Errorf("serving -http: %w", err)
		}
		log.Printf("observability on http://%s (/metrics, /debug/pprof/)", srv.Addr())
		return opt, srv, nil
	}
}
