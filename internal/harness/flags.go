package harness

import (
	"flag"
	"fmt"
	"log"
	"math"

	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// FlagSeconds converts a duration flag given in seconds to virtual time,
// rounded to the nearest nanosecond (so milliseconds convert exactly). It
// only converts, rejecting, naming the flag, a value that is not finite or
// lies past sim.Time's range (math.MaxInt64 ns, about 292 years), where the
// conversion would wrap; the bounds of a run are Validate's.
func FlagSeconds(flag string, seconds float64) (sim.Time, error) {
	if !(math.Abs(seconds)*1e9 < math.MaxInt64) { // NaN and ±Inf included
		return 0, fmt.Errorf("%s %v s: must be finite and under %.4g s", flag, seconds, math.MaxInt64/1e9)
	}
	return sim.Time(math.Round(seconds * 1e9)), nil
}

// secs is t in seconds, the unit the duration flags take.
func secs(t sim.Time) float64 { return float64(t) / 1e9 }

// SharedFlags declares on fs the eight flags fleetsim and fleetbench have
// in common (-seconds -seed -parallel -faults -fleet -workload -trace
// -http) and returns the function that, once fs is parsed, resolves them
// onto DefaultOptions: the Options, and the live -http server (nil without
// -http; the caller closes it). A single run and a rack read every one of
// them; a figure that sweeps one overrides it on each rung. It bounds
// nothing: the caller assigns its own flags, then calls Options.Validate.
func SharedFlags(fs *flag.FlagSet) func() (Options, *obs.Server, error) {
	opt := DefaultOptions()
	seconds := fs.Float64("seconds", 8, "measured virtual seconds per run")
	fs.Int64Var(&opt.Seed, "seed", opt.Seed, "simulation seed")
	fs.IntVar(&opt.Workers, "parallel", opt.Workers, "worker pool size: experiment runs, or fleet shards per epoch (0 = one per CPU, 1 = sequential)")
	faults := fs.String("faults", "", "NAND fault injection: off, light, heavy, or k=v list (pfail=,efail=,rretry=,tmo=,maxretries=,rstep=,stall=,seed=)")
	fs.IntVar(&opt.FleetDevices, "fleet", opt.FleetDevices, "rack size in devices (fleetsim: run a rack instead of one device; fleetbench: 0 = each rack scenario's default)")
	shapeName := fs.String("workload", "steady", "temporal arrival shape: steady, diurnal, bursty, or replay")
	traceFile := fs.String("trace", "", "block trace (binary or CSV) replayed through every tenant")
	httpAddr := fs.String("http", "", "serve /metrics and /debug/pprof/ on this address (e.g. :8080)")

	return func() (Options, *obs.Server, error) {
		var err error
		if opt.Duration, err = FlagSeconds("-seconds", *seconds); err != nil {
			return opt, nil, err
		}
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
			opt.WorkloadShape = workload.ShapeReplay
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
