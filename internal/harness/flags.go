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

// FlagMode is what a run resolved from the shared flags simulates, and so
// which of them it reads.
type FlagMode uint8

const (
	// DeviceFlags is one device: it reads every shared flag, and a -trace
	// implies the replay shape.
	DeviceFlags FlagMode = iota
	// SweepFlags is the workloads figure: it sweeps every shape itself and
	// takes only a -trace's records, which its replay rung replays.
	SweepFlags
	// RackFlags is a rack: it builds its own steady, fault-free tenants, so
	// -faults, -workload and -trace do not apply to it.
	RackFlags
)

// RejectSet returns an error naming the first of names set on the parsed
// fs: that flag does not apply to mode (e.g. "a rack").
func RejectSet(fs *flag.FlagSet, mode string, names ...string) error {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range names {
		if set[name] {
			return fmt.Errorf("-%s does not apply to %s", name, mode)
		}
	}
	return nil
}

// SharedFlags declares on fs the eight flags fleetsim and fleetbench have
// in common (-seconds -seed -parallel -faults -fleet -workload -trace
// -http) and returns the function that, once fs is parsed, resolves them
// onto DefaultOptions for a run of the given mode: the Options, and the
// live -http server (nil without -http; the caller closes it). A flag the
// mode does not read is an error.
func SharedFlags(fs *flag.FlagSet) func(mode FlagMode) (Options, *obs.Server, error) {
	seconds := fs.Float64("seconds", 8, "measured virtual seconds per run")
	seed := fs.Int64("seed", 1, "simulation seed")
	parallel := fs.Int("parallel", 0, "worker pool size: experiment runs, or fleet shards per epoch (0 = one per CPU, 1 = sequential)")
	faults := fs.String("faults", "", "NAND fault injection: off, light, heavy, or k=v list (pfail=,efail=,rretry=,tmo=,maxretries=,rstep=,stall=,seed=)")
	fleetN := fs.Int("fleet", 0, "rack size in devices (fleetsim: run a rack instead of one device; fleetbench: 0 = each rack scenario's default)")
	shapeName := fs.String("workload", "steady", "temporal arrival shape: steady, diurnal, bursty, or replay")
	traceFile := fs.String("trace", "", "block trace (binary or CSV) replayed through every tenant")
	httpAddr := fs.String("http", "", "serve /metrics and /debug/pprof/ on this address (e.g. :8080)")

	return func(mode FlagMode) (Options, *obs.Server, error) {
		opt := DefaultOptions()
		if mode == RackFlags {
			if err := RejectSet(fs, "a rack", "faults", "workload", "trace"); err != nil {
				return opt, nil, err
			}
		}
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
			if mode == DeviceFlags {
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
