// Package harness assembles full FleetIO experiments: it builds a platform
// per (mix, policy) pair, calibrates SLOs from hardware-isolated runs (the
// paper sets each vSSD's SLO to its hardware-isolated P99), warms the
// device up so GC is live, drives the workloads, and reports the
// utilization/bandwidth/latency numbers behind every figure in §4.
package harness

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/admission"
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vssd"
	"repro/internal/workload"
)

// PolicyKind enumerates the §4.1 comparison policies.
type PolicyKind uint8

// Comparison policies.
const (
	PolHardware PolicyKind = iota
	PolSSDKeeper
	PolAdaptive
	PolSoftware
	PolFleetIO
	PolFleetIOUnifiedGlobal
	PolFleetIOCustomizedLocal
)

var policyNames = [...]string{
	PolHardware: "Hardware Isolation", PolSSDKeeper: "SSDKeeper", PolAdaptive: "Adaptive",
	PolSoftware: "Software Isolation", PolFleetIO: "FleetIO",
	PolFleetIOUnifiedGlobal: "FleetIO-Unified-Global", PolFleetIOCustomizedLocal: "FleetIO-Customized-Local",
}

func (p PolicyKind) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("PolicyKind(%d)", uint8(p))
}

// allPolicies is the Figure 10–13 lineup.
func allPolicies() []PolicyKind {
	return []PolicyKind{PolHardware, PolSSDKeeper, PolAdaptive, PolSoftware, PolFleetIO}
}

// Options scales an experiment. The defaults (via DefaultOptions) are
// tuned so a full figure regenerates in seconds while preserving the
// paper's relative behavior; pass bigger durations for tighter numbers.
type Options struct {
	Seed int64
	// Window is the RL decision window (paper: 2 s; scaled runs use less).
	Window sim.Time
	// Warmup is simulated before measurement starts (training + steady
	// state).
	Warmup sim.Time
	// Duration is the measured interval.
	Duration sim.Time
	// Channels and BlocksPerChip shrink the device for speed; zero keeps
	// DefaultConfig values.
	Channels      int
	BlocksPerChip int
	// PrefillFrac warms the FTL (paper: ≥50% of free blocks consumed).
	PrefillFrac float64
	// Pretrained seeds FleetIO agents.
	Pretrained *nn.ActorCritic
	// TrainDuringRun keeps PPO fine-tuning online.
	TrainDuringRun bool
	// Obs, when non-nil, attaches decision tracing and time-series
	// telemetry to the measured run (calibration runs stay unobserved).
	Obs *obs.Observer
	// Workers is the one fan-out: how many independent simulations
	// Compare and the scenario grids run concurrently (each on its own
	// engine), or, in a rack scenario, the size of the fleet's
	// shard-worker pool — the two are never in flight together. A
	// hardware-isolated RunOne or Calibrate fans its tenants' solo devices
	// out over the same count, nested inside a grid's (results are
	// slot-addressed, so nesting is safe). 0 means GOMAXPROCS; 1 forces
	// sequential execution. Results are byte-identical at any setting.
	Workers int
	// Faults, when non-nil and enabled, installs a NAND fault injector on
	// each measured run's device, and on every device of a rack scenario
	// (each shard with its own seed). Calibration runs stay fault-free so the
	// SLOs keep their clean-hardware definition; the measured run is then
	// judged against them under injected failures. A zero Config.Seed
	// derives the injector stream from Options.Seed, so fault scenarios
	// are per-seed deterministic. Under faults, FleetIO agents not seeded
	// from a Pretrained network (built at the base input width) also see
	// the per-tenant write-retry rate (core.FleetIOConfig.ErrorRateState).
	Faults *fault.Config
	// FleetDevices sizes the rack of the rack scenarios (0 → each one's
	// default: defaultFleetDevices, defaultTierDevices,
	// defaultCohortDevices). Single-device experiments ignore it.
	FleetDevices int
	// WorkloadShape overlays a temporal arrival shape (diurnal, bursty,
	// replay) on every tenant of the measured run, or of a rack scenario
	// (each tenant with its own shape seed). Calibration always
	// runs steady so the SLOs keep their §3.3.1 nominal-shape definition.
	WorkloadShape workload.Shape
	// ReplayRecords, when non-empty, is the trace replayed by
	// ShapeReplay tenants (each tenant replays the same records); empty
	// means each tenant replays a trace synthesized from its own profile.
	ReplayRecords []trace.Record
}

// DefaultOptions returns fast, deterministic settings for tests/benches.
func DefaultOptions() Options {
	return Options{
		Seed:           1,
		Window:         250 * sim.Millisecond,
		Warmup:         3 * sim.Second,
		Duration:       8 * sim.Second,
		Channels:       16,
		BlocksPerChip:  48,
		PrefillFrac:    0.55,
		TrainDuringRun: true,
	}
}

// Validate reports the first value of o that no run can honour, naming the
// flag that sets it (the field, where no flag does). Every entry point that
// runs to Duration panics with its error: Measure, RunOne, Calibrate and
// the rack scenarios.
func (o Options) Validate() error {
	switch {
	case o.Duration <= 0:
		return fmt.Errorf("-seconds (Duration) %g s: must be at least 1 ns", secs(o.Duration))
	case o.Warmup < 0:
		return fmt.Errorf("-warmup (Warmup) %g s: must be >= 0", secs(o.Warmup))
	case o.Window <= 0:
		return fmt.Errorf("-window (Window) %g s: must be at least 1 ns", secs(o.Window))
	case float64(o.Warmup)+4*float64(o.Window)+float64(o.Duration) >= math.MaxInt64:
		// Figure 17 settles four windows past the warm-up; a float64 sum cannot wrap.
		return fmt.Errorf("-warmup %g s, four -window %g s and -seconds %g s: the run ends past %.4g s",
			secs(o.Warmup), secs(o.Window), secs(o.Duration), math.MaxInt64/1e9)
	case o.Workers < 0:
		return fmt.Errorf("-parallel (Workers) %d: must be >= 0", o.Workers)
	case o.FleetDevices < 0 || o.FleetDevices == 1:
		// A hybrid rack needs a device in each of its two classes.
		return fmt.Errorf("-fleet (FleetDevices) %d: must be 0 or >= 2", o.FleetDevices)
	case !(o.PrefillFrac >= 0 && o.PrefillFrac <= 1): // NaN included
		return fmt.Errorf("PrefillFrac %v: must be in [0, 1]", o.PrefillFrac)
	case len(o.ReplayRecords) > 0:
		// A binary trace is read as written: hold it to the replay rules.
		if err := workload.ReplayProfile("trace", o.ReplayRecords, true).Validate(); err != nil {
			return fmt.Errorf("-trace (ReplayRecords): %w", err)
		}
	}
	return nil
}

// mustRun panics with the first reason o, or a run of one of mixes under o,
// cannot run: Validate's error, then MixSpec.Check's.
func (o Options) mustRun(mixes ...MixSpec) {
	err := o.Validate()
	for _, m := range mixes {
		err = cmp.Or(err, m.Check(o))
	}
	if err != nil {
		panic("harness: " + err.Error())
	}
}

func (o Options) flashConfig() flash.Config {
	cfg := flash.DefaultConfig()
	if o.Channels > 0 {
		cfg.Channels = o.Channels
	}
	cfg.ChipsPerChannel = 4
	if o.BlocksPerChip > 0 {
		cfg.BlocksPerChip = o.BlocksPerChip
	}
	cfg.PagesPerBlock = 64
	return cfg
}

// MixSpec is a set of collocated workloads sharing one SSD.
type MixSpec struct {
	Label     string
	Workloads []string
}

// name is the mix's Result label: Label, or its workloads joined by "+".
func (m MixSpec) name() string {
	if m.Label != "" {
		return m.Label
	}
	return strings.Join(m.Workloads, "+")
}

// Check reports why m cannot run on opt's device: a workload with no
// profile, or a tenant count that does not divide the channels.
func (m MixSpec) Check(opt Options) error {
	for _, name := range m.Workloads {
		if !slices.Contains(workload.Names(), name) {
			return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workload.Names(), ", "))
		}
	}
	if n, ch := len(m.Workloads), opt.flashConfig().Channels; n == 0 || ch%n != 0 {
		return fmt.Errorf("%d tenants do not divide %d channels", n, ch)
	}
	return nil
}

// Pair builds the two-tenant mixes of Figures 2/3/10–13.
func Pair(ls, bi string) MixSpec {
	return MixSpec{Label: ls + "+" + bi, Workloads: []string{ls, bi}}
}

// table5Mixes returns the scalability mixes (Table 5).
func table5Mixes() []MixSpec {
	return []MixSpec{
		{Label: "mix1", Workloads: []string{"VDI-Web", "TeraSort"}},
		{Label: "mix2", Workloads: []string{"YCSB", "PageRank"}},
		{Label: "mix3", Workloads: []string{"VDI-Web", "VDI-Web", "TeraSort", "TeraSort"}},
		{Label: "mix4", Workloads: []string{"VDI-Web", "YCSB", "TeraSort", "PageRank"}},
		{Label: "mix5", Workloads: []string{"VDI-Web", "VDI-Web", "VDI-Web", "VDI-Web",
			"TeraSort", "TeraSort", "PageRank", "MLPrep"}},
	}
}

// evalPairs returns the six two-tenant pairs of §4.2.
func evalPairs() []MixSpec {
	var out []MixSpec
	for _, ls := range workload.EvaluationLatency() {
		for _, bi := range workload.EvaluationBandwidth() {
			out = append(out, Pair(ls, bi))
		}
	}
	return out
}

// TenantResult is one vSSD's measured outcome.
type TenantResult struct {
	Workload      string
	Class         workload.Class
	BandwidthMBps float64
	MeanMs        float64
	P95Ms         float64
	P99Ms         float64
	P999Ms        float64
	VioRate       float64
	SLOMs         float64
	Completed     int64
}

// Result is one (mix, policy) run.
type Result struct {
	Mix     string
	Policy  string
	AvgUtil float64 // mean SSD bandwidth utilization over the run
	P95Util float64 // 95th percentile of per-window utilization
	Tenants []TenantResult
}

// BandwidthTenant returns the mean bandwidth (MB/s) of the
// bandwidth-intensive tenants.
func (r Result) BandwidthTenant() float64 {
	return r.classMean(workload.Bandwidth, func(t TenantResult) float64 { return t.BandwidthMBps })
}

// LatencyTenantP99 returns the mean P99 (ms) of the latency-sensitive
// tenants.
func (r Result) LatencyTenantP99() float64 {
	return r.classMean(workload.Latency, func(t TenantResult) float64 { return t.P99Ms })
}

// classMean is the mean of metric over the tenants of class c; 0 when there
// are none.
func (r Result) classMean(c workload.Class, metric func(TenantResult) float64) float64 {
	var sum float64
	var n int
	for _, t := range r.Tenants {
		if t.Class == c {
			sum += metric(t)
			n++
		}
	}
	return sum / float64(max(n, 1))
}

// TypeModel returns the workload-type classifier trained on all nine
// profiles plus the §3.8 α mapping for its clusters, trained once per
// process (deterministically).
func TypeModel() (*cluster.Model, map[int]float64) { return typeModel() }

// typeSeed is the type model's k-means seed: the first from 7 at which the
// anchor workloads land in distinct clusters (TestTypeModelAlphaMapping).
const typeSeed = 9

// typeDataset is the type model's dataset, built once per process.
var typeDataset = sync.OnceValue(func() cluster.Dataset {
	return cluster.BuildDataset(workload.Names(), 8, 2000, 16<<10, 42)
})

var typeModel = sync.OnceValues(func() (*cluster.Model, map[int]float64) {
	m := cluster.Train(typeDataset(), 3, typeSeed)
	return m, map[int]float64{
		m.WorkloadCluster["VDI-Web"]:  core.AlphaLC1,
		m.WorkloadCluster["YCSB"]:     core.AlphaLC2,
		m.WorkloadCluster["TeraSort"]: core.AlphaBI,
	}
})

// softwareShareFactor is software isolation's token-bucket slack: each
// tenant may draw this fraction of its fair share of the channels it
// shares.
const softwareShareFactor = 0.9

// Run measures a mix on one device (device.Device, the stack every rack
// shard is too): built tenant by tenant (NewRun, AddTenant, AttachPolicy)
// and driven in steps (Start, Advance, BeginMeasuring, Collect, Stop).
// Measure does all of it for a mix and returns the run finished, with the
// fault ledger and workload-type labels readable off the platform it still
// holds; the public fleetio.Simulator drives the same seams interactively.
type Run struct {
	// Result is the outcome of the last Collect.
	Result Result

	mix  MixSpec // Label, and one workload per AddTenant
	kind PolicyKind
	opt  Options
	dev  *device.Device
	rng  *sim.RNG
	// first is the mix index of the run's first tenant: 0, except on a solo
	// run (see solo), whose one tenant keeps its index in the mix for its
	// streams, shape seed and vSSD name while its vSSD id is 0.
	first int
	// recs holds one trace recorder per tenant, each bound to the tenant's
	// generator, on a run whose policy re-types (attachFleetIO); nil on
	// every other run, which records nothing.
	recs        []*trace.Recorder
	smp         *obs.Sampler
	windows     []windowLoad // per-window device load since measureFrom
	measureFrom sim.Time     // virtual time of the last BeginMeasuring
	end         sim.Time     // virtual time the generators stopped at
}

// windowLoad is one decision window: the payload bytes the run's vSSDs
// moved in it, and its length.
type windowLoad struct {
	bytes int64
	dur   sim.Time
}

// TenantSpec is one tenant of a run: its workload, its slice of the
// device, its latency objective and how full its FTL starts.
type TenantSpec struct {
	Workload     string
	Isolation    vssd.Isolation
	Channels     []int
	LogicalPages int      // 0: derived from the owned channels
	RateLimit    float64  // token-bucket bytes/s; 0: unthrottled
	SLO          sim.Time // 0: no objective (calibration)
	PrefillFrac  float64
}

// topology lays out tenant i of an n-tenant mix on the device.
type topology func(i, n int, prof workload.Profile, fc flash.Config) TenantSpec

// isolated gives every tenant an equal, private share of the channels.
func isolated(i, n int, _ workload.Profile, fc flash.Config) TenantSpec {
	share := fc.Channels / n
	return TenantSpec{Isolation: vssd.HardwareIsolated, Channels: ChannelRange(i*share, (i+1)*share)}
}

// shared stripes every tenant over all channels, with an equal split of
// 80% of the device as logical space.
func shared(_, n int, _ workload.Profile, fc flash.Config) TenantSpec {
	return TenantSpec{
		Isolation:    vssd.SoftwareIsolated,
		Channels:     ChannelRange(0, fc.Channels),
		LogicalPages: int(float64(fc.TotalBlocks()*fc.PagesPerBlock) * 0.8 / float64(n)),
	}
}

// mixedIsolation is Figure 16's topology: every latency-sensitive tenant
// keeps its private channel share, and the two bandwidth-intensive tenants
// are software-isolated over the upper half of the device, each
// rate-limited to its share of that pool.
func mixedIsolation(i, n int, prof workload.Profile, fc flash.Config) TenantSpec {
	if prof.Class == workload.Latency {
		return isolated(i, n, prof, fc)
	}
	l := shared(i, n, prof, fc)
	pool := fc.Channels / 2
	l.Channels = ChannelRange(pool, fc.Channels)
	l.RateLimit = fc.ChannelBandwidth() * float64(pool) / 2 * softwareShareFactor
	return l
}

func (o Options) faultsEnabled() bool { return o.Faults != nil && o.Faults.Enabled() }

// NewRun creates the device of a run — engine, platform, observer and
// fault injector per opt — with no tenants yet.
func NewRun(opt Options) *Run {
	var faults *fault.Config
	if opt.faultsEnabled() {
		fc := *opt.Faults
		if fc.Seed == 0 {
			fc.Seed = opt.Seed
		}
		faults = &fc
	}
	dev := device.New(opt.flashConfig(), opt.Obs.Recorder(), faults)
	return &Run{opt: opt, dev: dev, rng: sim.NewRNG(opt.Seed)}
}

// AddTenant creates the next tenant: a vSSD laid out per spec with a
// prefilled FTL and an unrecorded generator for its workload (under the
// run's temporal shape). It returns the tenant's index, which is also its
// vSSD id and its row in the Result. Every tenant is added before
// AttachPolicy, which fixes the policy's agents and α (and, for a policy
// that re-types, the recorders its typing reads), and so before Start;
// adding one later panics.
// So does a prefill that does not fit without GC: GC would run the engine
// before the run starts.
func (r *Run) AddTenant(spec TenantSpec) int {
	if r.dev.Runner() != nil {
		panic(fmt.Sprintf("harness: AddTenant(%s) after AttachPolicy or Start: add every tenant, then attach the policy, then start", spec.Workload))
	}
	id := len(r.mix.Workloads)
	i := r.first + id
	prefillRNG, genRNG := r.tenantStreams(i)
	prof := r.profile(i, spec.Workload)
	_, err := r.dev.AddVSSD(device.Spec{
		Config: vssd.Config{
			Name:             fmt.Sprintf("%s-%d", spec.Workload, i),
			Isolation:        spec.Isolation,
			Channels:         spec.Channels,
			LogicalPages:     spec.LogicalPages,
			MaxInflightPages: prof.MaxInflightPages,
			SLO:              spec.SLO,
		},
		RateLimit:   spec.RateLimit,
		PrefillFrac: spec.PrefillFrac,
		Overwrite:   0.3,
		RNG:         prefillRNG,
	})
	if err != nil {
		panic(fmt.Sprintf("harness: %s at PrefillFrac %v must prefill without GC, which would run the engine before the run starts: %v",
			spec.Workload, spec.PrefillFrac, err))
	}
	r.dev.Drive(id, prof, genRNG, nil)
	r.mix.Workloads = append(r.mix.Workloads, spec.Workload)
	return id
}

// profile is what tenant i of the mix generates when it runs name: name's
// profile under the run's temporal shape. The shaped profile keeps its name
// and request mix, so SLO seeding and result collection still key by
// workload.
func (r *Run) profile(i int, name string) workload.Profile {
	prof := workload.ByName(name)
	if r.opt.WorkloadShape != workload.ShapeSteady {
		prof = workload.ApplyShape(prof, r.opt.WorkloadShape, shapeSeed(r.opt.Seed, i), r.opt.ReplayRecords)
	}
	return prof
}

// tenantStreams draws tenant i's prefill and generator streams from the
// run's stream. Split consumes parent state, so tenant i's streams depend on
// how many tenants drew before it.
func (r *Run) tenantStreams(i int) (prefill, gen *sim.RNG) {
	return r.rng.Split(int64(100 + i)), r.rng.Split(int64(i))
}

// Platform returns the run's device, for manual actions and readings the
// Result does not carry.
func (r *Run) Platform() *vssd.Platform { return r.dev.Platform() }

// buildPlatform creates the device and, per the topology, one tenant for
// each workload of the mix (kind's standard topology when topo is nil).
// slos may be nil (calibration run).
func buildPlatform(mix MixSpec, kind PolicyKind, topo topology, slos []sim.Time, opt Options) *Run {
	if topo == nil {
		topo = isolated
		if kind == PolSoftware {
			topo = shared
		}
	}
	opt.mustRun(mix)
	r := NewRun(opt)
	r.mix.Label, r.kind = mix.Label, kind
	fc := r.Platform().FlashConfig()
	nT := len(mix.Workloads)
	for i, name := range mix.Workloads {
		spec := topo(i, nT, workload.ByName(name), fc)
		spec.Workload, spec.PrefillFrac = name, opt.PrefillFrac
		if slos != nil {
			spec.SLO = slos[i]
		}
		r.AddTenant(spec)
	}
	return r
}

// shapeSeed derives tenant i's trace-synthesis seed from the experiment
// seed through the sim.RNG.Stream split (a SplitMix64-style scramble of
// (seed, stream id), the same collision-free derivation the fleet uses
// for its shard and tenant streams). The old linear form
// opt.Seed*1000+int64(i) collided across experiments: seed S tenant 1000
// and seed S+1 tenant 0 synthesized identical traces.
func shapeSeed(seed int64, i int) int64 {
	return sim.NewRNG(seed).Stream(int64(i)).Int63()
}

// ChannelRange returns the channels [lo, hi).
func ChannelRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for c := lo; c < hi; c++ {
		out = append(out, c)
	}
	return out
}

// AttachPolicy wires the policy of the given kind, and the runner that
// drives it every window, to the tenants added so far. Attaching one to a
// started run panics: the runner Start started would keep deciding.
func (r *Run) AttachPolicy(kind PolicyKind) {
	if r.dev.Started() {
		panic(fmt.Sprintf("harness: AttachPolicy(%v) after Start: attach the policy before the run starts", kind))
	}
	r.kind = kind
	plat := r.Platform()
	cfg := plat.FlashConfig()
	var pol core.Policy
	switch kind {
	case PolHardware:
		pol = baseline.HardwareIsolation()
	case PolSoftware:
		baseline.ConfigureSoftwareIsolation(plat, softwareShareFactor)
		pol = baseline.SoftwareIsolation()
	case PolAdaptive:
		pol = &baseline.Adaptive{TotalChannels: cfg.Channels}
	case PolSSDKeeper:
		pol = baseline.NewSSDKeeper(cfg.Channels, cfg.ChannelBandwidth(), r.opt.Seed)
	case PolFleetIO, PolFleetIOUnifiedGlobal, PolFleetIOCustomizedLocal:
		r.attachFleetIO(deployedFleetIO(kind, r.opt))
		return
	default:
		panic("harness: unknown policy kind")
	}
	r.dev.Attach(pol, nil, r.opt.Window)
}

// The three FleetIO wirings, as data: the fields below are all they differ
// in. Everything else — seed, type model, per-type α seeding, recorders,
// observer, admission control — is attachFleetIO's and the same for all
// three.

// deployedFleetIO is a measured run: every agent fine-tunes its own copy of
// the pretrained model every 10 windows and is re-typed every 5.
func deployedFleetIO(kind PolicyKind, opt Options) core.FleetIOConfig {
	mode := core.ModeFull
	switch kind {
	case PolFleetIOUnifiedGlobal:
		mode = core.ModeUnifiedGlobal
	case PolFleetIOCustomizedLocal:
		mode = core.ModeCustomizedLocal
	}
	pretrained := opt.Pretrained
	if mode != core.ModeFull && pretrained != nil {
		// The Figure 15 ablation variants deploy models pretrained under
		// their own reward function — the reward shapes behavior during
		// training, not at inference.
		pretrained = pretrainedModelFor(mode)
	}
	return core.FleetIOConfig{
		Mode:       mode,
		Train:      opt.TrainDuringRun,
		TrainEvery: 10,
		TypeEvery:  5,
		Pretrained: pretrained,
		// The per-tenant write-retry rate widens the network input, so it is
		// fed only to agents not seeded from a network built at the base width.
		ErrorRateState: opt.faultsEnabled() && pretrained == nil,
	}
}

// figure16FleetIO is a measured run that is never re-typed: α stays as
// seeded from the workload names.
func figure16FleetIO(opt Options) core.FleetIOConfig {
	cfg := deployedFleetIO(PolFleetIO, opt)
	cfg.TypeEvery = 0
	return cfg
}

// episodeFleetIO is a pretraining episode: all agents act on the shared
// network (read, never trained — the in-episode PPO trigger is kept out of
// reach so every transition survives for the trainer's learner), sampling
// the stochastic policy, or argmax actions for held-out evaluation.
func episodeFleetIO(spec episodeSpec, net *nn.ActorCritic) core.FleetIOConfig {
	return core.FleetIOConfig{
		Mode:          spec.Mode,
		Train:         true,
		TrainEvery:    1 << 30,
		Pretrained:    net,
		ShareModel:    true,
		GreedyCollect: spec.Greedy,
		RL:            spec.Pretrain.RL,
	}
}

// attachFleetIO is the one FleetIO wiring: the policy with the shared type
// model, per-type α, and the runner that sends its harvest actions through
// an admission controller every window. A policy that re-types (TypeEvery >
// 0) also gets one trace recorder per tenant, bound to the tenant's
// generator: the recorder belongs to its reader, so a run nothing types
// records nothing.
func (r *Run) attachFleetIO(cfg core.FleetIOConfig) *core.FleetIO {
	plat := r.Platform()
	tm, alphas := TypeModel()
	cfg.Seed = r.opt.Seed
	cfg.TypeModel = tm
	cfg.AlphaByCluster = alphas
	cfg.Obs = plat.Observer()
	f := core.NewFleetIO(plat, cfg)
	if cfg.TypeEvery > 0 {
		for i := range r.mix.Workloads {
			rec := trace.NewRecorder(cluster.WindowSize)
			r.dev.Record(i, rec)
			f.SetRecorder(i, rec)
			r.recs = append(r.recs, rec)
		}
	}
	// Seed per-type α immediately from the known workload names so short
	// runs behave like converged typing; live re-typing keeps it fresh.
	for i, name := range r.mix.Workloads {
		if c, ok := tm.WorkloadCluster[name]; ok {
			if a, ok2 := alphas[c]; ok2 {
				f.SetAlpha(i, a)
			}
		}
	}
	adm := admission.NewController(plat, nil)
	adm.Obs = plat.Observer()
	r.dev.Attach(f, adm, r.opt.Window)
	return f
}

// Start begins the run: telemetry, the generators and the policy runner
// (Hardware Isolation when no policy was attached). From here Advance
// moves virtual time. Starting a started run does nothing.
func (r *Run) Start() {
	if r.dev.Started() {
		return
	}
	if r.dev.Runner() == nil {
		r.AttachPolicy(PolHardware)
	}
	r.dev.Runner().OnWindow = func(_ sim.Time, snaps []vssd.WindowSnapshot) {
		var w windowLoad
		for _, s := range snaps {
			w.bytes += s.Window.Bytes()
			w.dur = max(w.dur, s.Duration)
		}
		r.windows = append(r.windows, w)
	}
	r.smp = r.startObserving()
	r.dev.Start()
}

// Advance runs the engine to virtual time `to`.
func (r *Run) Advance(to sim.Time) { r.dev.Advance(to) }

// Now returns the run's virtual time.
func (r *Run) Now() sim.Time { return r.Platform().Engine().Now() }

// Measured returns the length of the interval Collect reports: virtual
// time since the last BeginMeasuring (since the start when there was none).
func (r *Run) Measured() sim.Time { return r.Now() - r.measureFrom }

// stop ends the run: the generators and the telemetry sampler stop, so
// the engine's event queue can drain.
func (r *Run) stop() {
	r.dev.Stop()
	r.smp.Stop()
	r.end = r.Now()
}

// boundary is a point in virtual time at which execute pauses the engine
// and calls do.
type boundary struct {
	at sim.Time
	do func()
}

// execute is the one drive sequence: start, advance to each boundary in
// turn and then to end, and stop.
func (r *Run) execute(end sim.Time, bounds ...boundary) {
	r.Start()
	for _, b := range bounds {
		r.Advance(b.at)
		b.do()
	}
	r.Advance(end)
	r.stop()
}

// BeginMeasuring is the measurement boundary: run-level metrics and the
// per-window utilization series restart from zero, and Collect reports
// the interval from here on.
func (r *Run) BeginMeasuring() {
	for _, v := range r.Platform().VSSDs() {
		v.ResetTotals()
		v.Rotate()
	}
	r.windows = r.windows[:0]
	r.measureFrom = r.Now()
}

// measure runs warmup then the measured interval and collects the Result.
func (r *Run) measure() *Run {
	r.execute(r.opt.Warmup+r.opt.Duration, boundary{r.opt.Warmup, r.BeginMeasuring})
	r.Collect()
	return r
}

// Collect assembles, stores and returns the Result of the interval since
// the last BeginMeasuring (since the start of the run when there was none).
func (r *Run) Collect() Result {
	res := Result{Mix: r.mix.name(), Policy: r.kind.String()}
	measured := r.Measured()
	var totalBytes int64
	for i, v := range r.Platform().VSSDs() {
		prof := workload.ByName(r.mix.Workloads[i])
		h := v.TotalHist()
		tr := TenantResult{
			Workload:  prof.Name,
			Class:     prof.Class,
			MeanMs:    h.Mean() / 1e6,
			P95Ms:     float64(h.P95()) / 1e6,
			P99Ms:     float64(h.P99()) / 1e6,
			P999Ms:    float64(h.P999()) / 1e6,
			SLOMs:     float64(v.SLO()) / 1e6,
			Completed: v.Completed(),
		}
		if measured > 0 { // an empty interval moved nothing: 0, not NaN
			tr.BandwidthMBps = float64(v.TotalBytesMoved()) / (float64(measured) / 1e9) / 1e6
		}
		if h.Count() > 0 && v.SLO() > 0 {
			tr.VioRate = float64(h.CountAbove(v.SLO())) / float64(h.Count())
		}
		totalBytes += v.TotalBytesMoved()
		res.Tenants = append(res.Tenants, tr)
	}
	res.AvgUtil, res.P95Util = utilization(r.Platform().FlashConfig(), totalBytes, measured, r.windows)
	r.Result = res
	return res
}

// invariants is the run's rows as it finished: its device's, and the
// physical bound that the payload bytes its vSSDs moved in the measured
// interval fit the device's peak bandwidth over that interval
// (run.bandwidth). The bound is per interval: a window can read over 1,
// since a request's bytes land in the window its last page completes in.
func (r *Run) invariants() []obs.Invariant {
	var bytes int64
	for _, v := range r.Platform().VSSDs() {
		bytes += v.TotalBytesMoved()
	}
	peak := r.Platform().FlashConfig().PeakBandwidth() * float64(r.Measured()) / 1e9
	bound := obs.Invariant{Name: "run.bandwidth", LHS: bytes, RHS: int64(peak), OK: float64(bytes) <= peak}
	return append(r.dev.Invariants(), bound)
}

// utilization returns the mean utilization of a device of geometry fc that
// moved bytes in measured (payload bytes over the device's peak aggregate
// bandwidth for that interval; 0 for an empty interval), and the 95th
// percentile of its per-window utilizations. The arithmetic takes integer
// bytes, so a split run's summed bytes land on the joint run's floats
// exactly.
func utilization(fc flash.Config, bytes int64, measured sim.Time, windows []windowLoad) (avg, p95 float64) {
	util := func(b int64, dur sim.Time) float64 {
		if dur <= 0 {
			return 0
		}
		return float64(b) / (fc.PeakBandwidth() * float64(dur) / 1e9)
	}
	var utils []float64
	for _, w := range windows {
		if w.dur > 0 {
			utils = append(utils, util(w.bytes, w.dur))
		}
	}
	if len(utils) > 0 {
		sort.Float64s(utils)
		p95 = utils[min(int(0.95*float64(len(utils))), len(utils)-1)]
	}
	return util(bytes, measured), p95
}

// WriteTable renders the result as the per-tenant table fleetsim and the
// public Report print.
func (r Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "policy: %s   SSD utilization: %.1f%% (p95 %.1f%%)\n", r.Policy, r.AvgUtil*100, r.P95Util*100)
	fmt.Fprintf(w, "%-16s %-22s %12s %10s %10s %10s %10s\n",
		"workload", "class", "BW MB/s", "mean ms", "P95 ms", "P99 ms", "SLO vio")
	for _, t := range r.Tenants {
		fmt.Fprintf(w, "%-16s %-22s %12.1f %10.2f %10.2f %10.2f %9.2f%%\n",
			t.Workload, t.Class.String(), t.BandwidthMBps, t.MeanMs, t.P95Ms, t.P99Ms, t.VioRate*100)
	}
}

// Calibrate runs the mix hardware-isolated without SLOs and returns each
// tenant's measured P99 — the SLO definition of §3.3.1. The tenants run
// split (see measureSplit), each on a device of its own channel share, on
// up to opt.Workers goroutines; the P99s are the joint run's exactly.
func Calibrate(mix MixSpec, opt Options) []sim.Time {
	opt = opt.calibration()
	var vs []*vssd.VSSD
	if splittable(PolHardware, opt) {
		for _, s := range measureSplit(mix, nil, opt) {
			vs = append(vs, s.Platform().VSSD(0))
		}
	} else {
		vs = Measure(mix, PolHardware, nil, opt).Platform().VSSDs()
	}
	slos := make([]sim.Time, len(mix.Workloads))
	for i, v := range vs {
		slos[i] = v.TotalHist().P99()
		if slos[i] <= 0 {
			slos[i] = 2 * sim.Millisecond
		}
	}
	return slos
}

// calibration is opt as Calibrate runs it. Calibration defines the SLOs;
// observing it would pollute the trace and telemetry of the measured run
// that follows, injecting faults into it would bake retry tails into the
// SLO itself, and shaping it would redefine the SLO per shape instead of
// per workload (§3.3.1 measures the nominal hardware-isolated P99).
// Hardware isolation runs no agent, so no pretrained model either.
func (o Options) calibration() Options {
	o.Pretrained = nil
	o.Obs = nil
	o.Faults = nil
	o.WorkloadShape = workload.ShapeSteady
	o.ReplayRecords = nil
	return o
}

// Measure executes a single (mix, policy) experiment against the given
// SLOs — build, wire, warm up, measure — and returns the finished run: one
// device, every tenant on it. It is the oracle RunOne's and Calibrate's
// split runs are held to.
func Measure(mix MixSpec, kind PolicyKind, slos []sim.Time, opt Options) *Run {
	r := buildPlatform(mix, kind, nil, slos, opt)
	r.AttachPolicy(kind)
	return r.measure()
}

// RunOne is Measure's Result. A hardware-isolated mix with no fault
// injector and no observer runs split (see measureSplit): one device of its
// channel share per tenant, on up to opt.Workers goroutines, merged into the
// Result the joint run produces, bit for bit.
func RunOne(mix MixSpec, kind PolicyKind, slos []sim.Time, opt Options) Result {
	if splittable(kind, opt) {
		return mergeSolos(mix, measureSplit(mix, slos, opt), opt)
	}
	return Measure(mix, kind, slos, opt).Result
}

// Compare calibrates the mix once and runs every requested policy: the
// one-mix grid, computed afresh on every call. The per-policy runs are
// independent deterministic simulations, so they fan out over opt.Workers
// goroutines; results are returned in kinds order and are identical to a
// sequential loop.
func Compare(mix MixSpec, kinds []PolicyKind, opt Options) []Result {
	cs := new(memo).run(opt, grid{mixes: []MixSpec{mix}, kinds: kinds})
	out := make([]Result, len(kinds))
	for i, k := range kinds {
		out[i] = cs.at(mix, k, "", opt.Seed).Result
	}
	return out
}
