package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/workload"
)

// workloadDef is one benchmark workload: a named scenario whose only
// free input is the seed. Sizes are frozen here (not flags) because wall
// time is not linear in virtual time on every workload, so a run at
// another length measures something else.
type workloadDef struct {
	name string
	// subSeeds is how many seeds derived from -seed one run cycles
	// through. Host and simulated metrics are aggregated over all of
	// them, which is what keeps a run's numbers steady from one -seed to
	// the next: at a single seed the storm's wall on replay_overload
	// differs by ±12%, the rack's P99 by ±14%, and a pair's P99 by ±12%
	// with outliers at 2x. As many as one cycle fits in the run length.
	subSeeds int

	// Single-device scenario (devices == 0): harness.RunOne.
	mix              harness.MixSpec
	policy           harness.PolicyKind
	shape            workload.Shape
	warmup, duration sim.Time
	prefill          float64 // 0 keeps harness.DefaultOptions
	pretrained       bool    // FleetIO agents start from the pretrained net

	// Rack scenario (devices > 0): fleet.New(...).Run().
	devices int
	workers int
}

var workloadDefs = []workloadDef{
	{
		name: "pair_mixed", subSeeds: 16,
		mix: harness.Pair("YCSB", "TeraSort"), policy: harness.PolFleetIO, pretrained: true,
		warmup: 3 * sim.Second, duration: 60 * sim.Second,
	},
	{
		name: "pair_read", subSeeds: 16,
		mix: harness.Pair("SearchEngine", "PageRank"), policy: harness.PolFleetIO, pretrained: true,
		warmup: 3 * sim.Second, duration: 60 * sim.Second,
	},
	{
		name: "rack64", subSeeds: 16,
		devices: 64, workers: 2, duration: 3 * sim.Second,
	},
	{
		// Open loop into a tenant prefilled to 90%: the allocation stall
		// starts within the first windows on every seed. At the default
		// 55% prefill the onset moves by tens of virtual milliseconds with
		// the seed and, the storm's wall being quadratic in time since
		// onset, the wall moves ±40%.
		name: "replay_overload", subSeeds: 8,
		mix: harness.Pair("YCSB", "TeraSort"), policy: harness.PolHardware,
		shape:  workload.ShapeReplay,
		warmup: 250 * sim.Millisecond, duration: 500 * sim.Millisecond, prefill: 0.9,
	},
}

// The shortest runs a shortened repetition is cut to: long enough for a
// few hundred latency-class completions on one device and for three epochs
// of the rack, short enough that the warm-up repetition of replay_overload
// ends before its storm starts (a storm's size depends on the seed by 2x,
// which would make setup_s a function of the seed).
const (
	minSingleVS = 50 * sim.Millisecond
	minRackVS   = 300 * sim.Millisecond
)

func workloadByName(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

// params is the workload's frozen configuration, for the run stamp.
func (w *workloadDef) params() map[string]any {
	p := map[string]any{"sub_seeds": w.subSeeds, "duration_vs": float64(w.duration) / 1e9}
	if w.devices > 0 {
		p["devices"], p["workers"] = w.devices, w.workers
		p["placement"], p["migration"] = fleet.PlaceLeastLoaded.String(), true
		return p
	}
	p["mix"], p["policy"], p["shape"] = w.mix.Label, w.policy.String(), w.shape.String()
	p["warmup_vs"] = float64(w.warmup) / 1e9
	p["prefill_frac"] = w.options(0, 1, nil).PrefillFrac
	return p
}

// subSeed derives the k-th seed of a run through the sim.RNG stream split,
// the collision-free derivation the fleet uses for its shard streams.
func subSeed(seed int64, k int) int64 {
	return sim.NewRNG(seed).Stream(int64(k)).Int63()
}

// scaled shortens a virtual duration, never below floor.
func scaled(t sim.Time, scale float64, floor sim.Time) sim.Time {
	if s := sim.Time(float64(t) * scale); s > floor {
		return s
	}
	return floor
}

// prepared is what set-up leaves for the timed repetitions.
type prepared struct {
	net                   *nn.ActorCritic
	slos                  []sim.Time
	pretrainS, calibrateS float64
}

func (w *workloadDef) options(seed int64, scale float64, p *prepared) harness.Options {
	opt := harness.DefaultOptions()
	opt.Seed = seed
	opt.Warmup = scaled(w.warmup, scale, minSingleVS)
	opt.Duration = scaled(w.duration, scale, minSingleVS)
	opt.WorkloadShape = w.shape
	if w.prefill > 0 {
		opt.PrefillFrac = w.prefill
	}
	if p != nil {
		opt.Pretrained = p.net
	}
	return opt
}

// prepare pays what a fresh process pays before its first run: offline
// pretraining (harness.PretrainedModel's work, called directly so every
// set-up pass repeats it), the workload-type model, and SLO calibration
// (§3.3.1: each tenant's hardware-isolated P99). One SLO set, calibrated
// at seed, serves every sub-seed: the SLO is a property of the mix on
// this device, not of the random stream.
func (w *workloadDef) prepare(tr *tracer, seed int64, scale float64) *prepared {
	p := &prepared{}
	if w.devices > 0 {
		return p
	}
	if w.pretrained {
		sp := tr.begin("harness.Pretrain")
		t0 := time.Now()
		pc := harness.DefaultPretrainConfig()
		pc.EpisodeDuration = scaled(pc.EpisodeDuration, scale, sim.Second)
		p.net = harness.Pretrain(pc)
		p.pretrainS = time.Since(t0).Seconds()
		tr.end(sp)
		sp = tr.begin("harness.TypeModel")
		harness.TypeModel()
		tr.end(sp)
	}
	sp := tr.begin("harness.Calibrate")
	t0 := time.Now()
	p.slos = harness.Calibrate(w.mix, w.options(seed, scale, nil))
	p.calibrateS = time.Since(t0).Seconds()
	tr.end(sp)
	return p
}

func (w *workloadDef) fleetConfig(seed int64, scale float64) fleet.Config {
	return fleet.Config{
		Devices:   w.devices,
		Seed:      seed,
		Duration:  scaled(w.duration, scale, minRackVS),
		Placement: fleet.PlaceLeastLoaded,
		Migration: true,
		Workers:   w.workers,
	}
}

// simMetrics are the modelled device's results for one repetition: exact
// functions of (workload, seed), identical on any host.
type simMetrics struct {
	utilPct    float64
	lsP99Ms    float64
	lsSamples  int64 // latency-class requests behind lsP99Ms
	sloViolPct float64
}

// repOut is one repetition's outcome.
type repOut struct {
	completed   int64   // host I/Os completed in the measured interval
	vsec        float64 // virtual seconds simulated (warm-up + measured)
	sim         simMetrics
	fingerprint string // every simulated output, for exact comparison
	// Rack only.
	arrived, rejected, migrations int
}

// rep is the timed call.
func (w *workloadDef) rep(p *prepared, seed int64, scale float64) (repOut, error) {
	if w.devices > 0 {
		f := fleet.New(w.fleetConfig(seed, scale))
		return fleetOut(f, f.Run())
	}
	opt := w.options(seed, scale, p)
	return resultOut(harness.RunOne(w.mix, w.policy, p.slos, opt), opt)
}

func resultOut(r harness.Result, opt harness.Options) (repOut, error) {
	out := repOut{
		vsec:        float64(opt.Warmup+opt.Duration) / 1e9,
		fingerprint: fmt.Sprintf("%+v", r),
	}
	var vio float64
	for _, t := range r.Tenants {
		out.completed += t.Completed
		if t.Class == workload.Latency {
			out.sim.lsSamples += t.Completed
			vio += t.VioRate * float64(t.Completed)
		}
	}
	out.sim.utilPct = r.AvgUtil * 100
	out.sim.lsP99Ms = r.LatencyTenantP99()
	if out.sim.lsSamples > 0 {
		out.sim.sloViolPct = 100 * vio / float64(out.sim.lsSamples)
	}
	return out, checkSim(out)
}

func fleetFingerprint(st fleet.Stats) string {
	var sb strings.Builder
	st.Render(&sb)
	for _, d := range st.PerDevice {
		fmt.Fprintf(&sb, "dev %d tenants=%d util=%v bytes=%d completed=%d\n",
			d.Device, d.Tenants, d.MeanUtil, d.BytesMoved, d.Completed)
	}
	return sb.String()
}

// fleetOut rolls a finished rack run up. The latency-class P99 is, as on
// the pairs (harness.Result.LatencyTenantP99), the mean of per-vSSD P99s
// over the vSSDs of latency-class tenants, here those with at least 100
// completions; vSSDs are named t<tenant>-<workload>-m<n>. (The P99 of the
// merged histogram sits on a cliff: 95% of requests take 2 ms, the 1-2%
// queued behind an overloaded device take 25-70, and which side of 1% they
// fall on flips with the seed.)
func fleetOut(f *fleet.Fleet, st fleet.Stats) (repOut, error) {
	out := repOut{
		completed:   st.Completed,
		vsec:        float64(f.Config().Duration) / 1e9,
		fingerprint: fleetFingerprint(st),
		arrived:     st.Arrived,
		rejected:    st.Rejected,
		migrations:  st.MigrationsCompleted,
	}
	if !st.Balanced() {
		return out, fmt.Errorf("fleet ledger imbalance:\n%s", out.fingerprint)
	}
	tenants := f.Tenants()
	var p99Sum float64
	var vssds int
	for _, sh := range f.Shards() {
		for _, v := range sh.Platform().VSSDs() {
			id, _, _ := strings.Cut(strings.TrimPrefix(v.Name(), "t"), "-")
			n, err := strconv.Atoi(id)
			if err != nil || n >= len(tenants) {
				return out, fmt.Errorf("fleet vSSD name %q does not name a tenant", v.Name())
			}
			h := v.TotalHist()
			if workload.ByName(tenants[n].Workload).Class == workload.Latency && h.Count() >= 100 {
				p99Sum += float64(h.P99()) / 1e6
				vssds++
				out.sim.lsSamples += h.Count()
			}
		}
	}
	out.sim.utilPct = st.AvgUtil * 100
	if vssds > 0 {
		out.sim.lsP99Ms = p99Sum / float64(vssds)
	}
	return out, checkSim(out)
}

// checkSim is the per-repetition output check: work was done and the
// utilization is a utilization.
func checkSim(o repOut) error {
	if o.completed <= 0 {
		return fmt.Errorf("no I/O completed")
	}
	if !(o.sim.utilPct > 0 && o.sim.utilPct <= 100) {
		return fmt.Errorf("utilization %v%% outside (0, 100]", o.sim.utilPct)
	}
	if o.sim.lsSamples <= 0 || o.sim.lsP99Ms <= 0 {
		return fmt.Errorf("no latency-class samples (P99 %v ms over %d)", o.sim.lsP99Ms, o.sim.lsSamples)
	}
	return nil
}
