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

// FlagSeconds converts a duration flag given in seconds to virtual time. It
// rejects, naming the flag, a value that is not finite or lies past
// sim.Time's range (math.MaxInt64 ns, about 292 years), where the
// conversion would wrap; each caller keeps its own lower bound.
func FlagSeconds(flag string, seconds float64) (sim.Time, error) {
	if !(math.Abs(seconds)*1e9 < math.MaxInt64) { // NaN and ±Inf included
		return 0, fmt.Errorf("%s %v: must be finite and under %.4g s", flag, seconds, math.MaxInt64/1e9)
	}
	return sim.Time(seconds * 1e9), nil
}

// CheckHorizon rejects options whose longest run ends past sim.Time's
// range, where its end would wrap: the warm-up, Figure 17's four settling
// windows and the measured interval, summed in float64 so that the sum
// cannot wrap itself. The caller names the flags.
func CheckHorizon(opt Options) error {
	warmup, window, duration := float64(opt.Warmup), float64(opt.Window), float64(opt.Duration)
	if warmup+4*window+duration >= math.MaxInt64 {
		return fmt.Errorf("a run of %g s warm-up, four %g s windows and %g s measured ends past %.4g s",
			warmup/1e9, window/1e9, duration/1e9, math.MaxInt64/1e9)
	}
	return nil
}

// SharedFlags declares on fs the eight flags fleetsim and fleetbench have
// in common (-seconds -seed -parallel -faults -fleet -workload -trace
// -http) and returns the function that, once fs is parsed, resolves them
// onto DefaultOptions: the Options, and the live -http server (nil without
// -http; the caller closes it). A single run and a rack read every one of
// them; a figure that sweeps one overrides it on each rung.
func SharedFlags(fs *flag.FlagSet) func() (Options, *obs.Server, error) {
	seconds := fs.Float64("seconds", 8, "measured virtual seconds per run")
	seed := fs.Int64("seed", 1, "simulation seed")
	parallel := fs.Int("parallel", 0, "worker pool size: experiment runs, or fleet shards per epoch (0 = one per CPU, 1 = sequential)")
	faults := fs.String("faults", "", "NAND fault injection: off, light, heavy, or k=v list (pfail=,efail=,rretry=,tmo=,maxretries=,rstep=,stall=,seed=)")
	fleetN := fs.Int("fleet", 0, "rack size in devices (fleetsim: run a rack instead of one device; fleetbench: 0 = each rack scenario's default)")
	shapeName := fs.String("workload", "steady", "temporal arrival shape: steady, diurnal, bursty, or replay")
	traceFile := fs.String("trace", "", "block trace (binary or CSV) replayed through every tenant")
	httpAddr := fs.String("http", "", "serve /metrics and /debug/pprof/ on this address (e.g. :8080)")

	return func() (Options, *obs.Server, error) {
		opt := DefaultOptions()
		if !(*seconds > 0) {
			return opt, nil, fmt.Errorf("-seconds %v: must be > 0", *seconds)
		}
		if *parallel < 0 {
			return opt, nil, fmt.Errorf("-parallel %d: must be >= 0", *parallel)
		}
		if *fleetN < 0 || *fleetN == 1 {
			// A hybrid rack needs a device in each of its two classes.
			return opt, nil, fmt.Errorf("-fleet %d: must be 0 or >= 2", *fleetN)
		}
		duration, err := FlagSeconds("-seconds", *seconds)
		if err != nil {
			return opt, nil, err
		}
		opt.Seed = *seed
		opt.Duration = duration
		if err := CheckHorizon(opt); err != nil {
			return opt, nil, fmt.Errorf("-seconds %v: %w", *seconds, err)
		}
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
