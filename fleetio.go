package fleetio

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/harness"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vssd"
	"repro/internal/workload"
)

// Time is virtual time in nanoseconds.
type Time = sim.Time

// Common durations.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// SimConfig sizes the simulated SSD. The defaults mirror the paper's
// Table 3 device (16 channels, 4 chips/channel, 16 KB pages, queue depth
// 16, 20% overprovisioning) with a scaled-down block count.
type SimConfig struct {
	Channels        int
	ChipsPerChannel int
	BlocksPerChip   int
	PagesPerBlock   int
	PageSizeBytes   int
	// DecisionWindow is the RL window (paper default: 2 s).
	DecisionWindow Time
	Seed           int64
}

// DefaultSimConfig mirrors Table 3 with a fast block count.
func DefaultSimConfig() SimConfig {
	fc := flash.DefaultConfig()
	return SimConfig{
		Channels:        fc.Channels,
		ChipsPerChannel: fc.ChipsPerChannel,
		BlocksPerChip:   64,
		PagesPerBlock:   64,
		PageSizeBytes:   fc.PageSize,
		DecisionWindow:  250 * Millisecond,
		Seed:            1,
	}
}

// TenantConfig describes one vSSD and its workload.
type TenantConfig struct {
	// Workload is one of Workloads() (empty = no traffic generator; drive
	// the tenant yourself via Submit).
	Workload string
	// Channels the tenant owns (hardware isolation) or shares (software).
	Channels []int
	// SoftwareIsolated shares the channels behind a token bucket.
	SoftwareIsolated bool
	// RateLimitBps throttles the tenant (0 = unthrottled).
	RateLimitBps float64
	// SLO is the tail-latency objective (0 = calibrate or none).
	SLO Time
	// LogicalPages overrides the derived logical capacity.
	LogicalPages int
	// PrefillFrac warms the FTL before the run (0 = cold).
	PrefillFrac float64
}

// ChannelRange returns [lo, hi).
func ChannelRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for c := lo; c < hi; c++ {
		out = append(out, c)
	}
	return out
}

// Workloads lists the built-in workload profiles (Table 4 plus the
// pretraining set).
func Workloads() []string { return workload.Names() }

// Tenant is one vSSD with an optional traffic generator.
type Tenant struct {
	Name     string
	workload string // TenantConfig.Workload ("" = none)
	v        *vssd.VSSD
	gen      *workload.Generator
	rec      *trace.Recorder
	sim      *Simulator
}

// Submit issues a host request directly (for custom drivers).
func (t *Tenant) Submit(write bool, lpn, pages int, onComplete func(finished Time)) {
	t.v.Submit(&vssd.Request{Write: write, LPN: lpn, Pages: pages,
		OnComplete: func(_ *vssd.Request, at sim.Time) {
			if onComplete != nil {
				onComplete(at)
			}
		}})
}

// SetSLO installs a latency objective.
func (t *Tenant) SetSLO(slo Time) { t.v.SetSLO(slo) }

// Completed returns finished requests since the last reset.
func (t *Tenant) Completed() int64 { return t.v.Completed() }

// P99 returns the tenant's P99 latency so far.
func (t *Tenant) P99() Time { return t.v.TotalHist().P99() }

// Simulator is the top-level entry point: one shared SSD, its tenants,
// and a management policy, all on a deterministic virtual clock.
type Simulator struct {
	cfg     SimConfig
	eng     *sim.Engine
	plat    *vssd.Platform
	tenants []*Tenant
	runner  *core.Runner
	fleetio *core.FleetIO
	started bool
	resetAt Time
	rng     *sim.RNG
}

// NewSimulator builds an empty platform.
func NewSimulator(cfg SimConfig) *Simulator {
	eng := sim.NewEngine()
	pc := vssd.DefaultPlatformConfig()
	pc.Flash.Channels = cfg.Channels
	pc.Flash.ChipsPerChannel = cfg.ChipsPerChannel
	pc.Flash.BlocksPerChip = cfg.BlocksPerChip
	pc.Flash.PagesPerBlock = cfg.PagesPerBlock
	if cfg.PageSizeBytes > 0 {
		pc.Flash.PageSize = cfg.PageSizeBytes
	}
	return &Simulator{
		cfg:  cfg,
		eng:  eng,
		plat: vssd.NewPlatform(eng, pc),
		rng:  sim.NewRNG(cfg.Seed),
	}
}

// AddTenant creates a vSSD (optionally with a workload generator).
func (s *Simulator) AddTenant(name string, cfg TenantConfig) *Tenant {
	vc := vssd.Config{
		Name:         name,
		Channels:     cfg.Channels,
		SLO:          cfg.SLO,
		RateLimitBps: cfg.RateLimitBps,
		LogicalPages: cfg.LogicalPages,
	}
	if cfg.SoftwareIsolated {
		vc.Isolation = vssd.SoftwareIsolated
	}
	var prof workload.Profile
	if cfg.Workload != "" {
		prof = workload.ByName(cfg.Workload)
		vc.MaxInflightPages = prof.MaxInflightPages
	}
	v := s.plat.AddVSSD(vc)
	if cfg.PrefillFrac > 0 {
		if err := v.Tenant().Prefill(cfg.PrefillFrac, 0.3, s.rng.Split(int64(len(s.tenants)+50))); err != nil {
			panic(err)
		}
	}
	t := &Tenant{Name: name, workload: cfg.Workload, v: v, sim: s}
	if cfg.Workload != "" {
		t.gen = workload.NewGenerator(s.eng, v, prof, s.rng.Split(int64(len(s.tenants))))
		t.rec = trace.NewRecorder(10_000)
		t.gen.Record(t.rec)
	}
	s.tenants = append(s.tenants, t)
	return t
}

// FleetIOOptions configures the RL policy.
type FleetIOOptions struct {
	// Pretrained seeds all agents (see LoadModel / PretrainedModel).
	Pretrained *Model
	// Train keeps PPO fine-tuning online (default true).
	NoTraining bool
	Seed       int64
}

// Model is a trained FleetIO network.
type Model struct{ net *nn.ActorCritic }

// Params returns the trainable parameter count (paper: ~9K).
func (m *Model) Params() int { return m.net.NumParams() }

// Save writes the model to a file.
func (m *Model) Save(path string) error { return m.net.SaveFile(path) }

// LoadModel reads a model produced by cmd/fleettrain or Model.Save.
func LoadModel(path string) (*Model, error) {
	net, err := nn.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return &Model{net: net}, nil
}

// PretrainedModel pretrains (once per process) on the paper's held-out
// workloads and returns the shared model.
func PretrainedModel() *Model {
	return &Model{net: harness.PretrainedModel()}
}

// UseFleetIO installs the paper's multi-agent RL policy with admission
// control — the same deployment the harness figures measure: every agent
// is typed from its tenant's workload, fine-tunes online and is re-typed
// from its recorded traffic. Call after all tenants are added and before
// Run.
func (s *Simulator) UseFleetIO(opts FleetIOOptions) {
	hopt := harness.Options{TrainDuringRun: !opts.NoTraining}
	if opts.Pretrained != nil {
		hopt.Pretrained = opts.Pretrained.net
	}
	cfg := harness.DeployedFleetIO(harness.PolFleetIO, hopt)
	names := make([]string, len(s.tenants))
	recs := make([]*trace.Recorder, len(s.tenants))
	for i, t := range s.tenants {
		names[i], recs[i] = t.workload, t.rec
	}
	s.fleetio, s.runner = harness.DeployFleetIO(s.plat, names, recs, opts.Seed, s.cfg.DecisionWindow, cfg)
}

// UseStatic installs a do-nothing policy (hardware/software isolation are
// then purely a matter of tenant configuration).
func (s *Simulator) UseStatic(name string) {
	s.runner = &core.Runner{
		Plat:   s.plat,
		Policy: core.StaticPolicy{PolicyName: name},
		Window: s.cfg.DecisionWindow,
	}
}

// Run advances virtual time by d, starting workloads and the policy on
// first call, and returns a report over the whole elapsed run.
func (s *Simulator) Run(d Time) *Report {
	if s.runner == nil {
		s.UseStatic("none")
	}
	if !s.started {
		s.started = true
		for _, t := range s.tenants {
			if t.gen != nil {
				t.gen.Start()
			}
		}
		s.runner.Start()
	}
	s.eng.RunUntil(s.eng.Now() + d)
	return s.Report()
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.eng.Now() }

func (s *Simulator) tenantByName(name string) *Tenant {
	for _, t := range s.tenants {
		if t.Name == name {
			return t
		}
	}
	panic("fleetio: unknown tenant " + name)
}

// MakeHarvestable executes a manual Make_Harvestable action: the named
// tenant's harvestable budget becomes `channels` flash channels (0
// reclaims everything, lazily for dirty blocks).
func (s *Simulator) MakeHarvestable(tenant string, channels int) {
	t := s.tenantByName(tenant)
	bw := float64(channels) * s.plat.FlashConfig().ChannelBandwidth()
	s.plat.Apply(vssd.Action{VSSD: t.v.ID(), Kind: vssd.ActMakeHarvestable, BW: bw})
}

// Harvest executes a manual Harvest action: the named tenant targets
// `channels` harvested flash channels.
func (s *Simulator) Harvest(tenant string, channels int) {
	t := s.tenantByName(tenant)
	bw := float64(channels) * s.plat.FlashConfig().ChannelBandwidth()
	s.plat.Apply(vssd.Action{VSSD: t.v.ID(), Kind: vssd.ActHarvest, BW: bw})
}

// SetPriority executes a manual Set_Priority action (1=low, 2=medium,
// 3=high).
func (s *Simulator) SetPriority(tenant string, level int) {
	t := s.tenantByName(tenant)
	s.plat.Apply(vssd.Action{VSSD: t.v.ID(), Kind: vssd.ActSetPriority, Level: level})
}

// ResetMetrics clears per-tenant run counters (e.g. after a warmup phase);
// subsequent reports cover only the interval since this call.
func (s *Simulator) ResetMetrics() {
	s.resetAt = s.eng.Now()
	for _, t := range s.tenants {
		t.v.ResetTotals()
		t.v.Rotate()
	}
}

// Report is a summary of the run so far.
type Report struct {
	Elapsed     Time
	Utilization float64
	Tenants     []TenantReport
}

// TenantReport is one tenant's summary.
type TenantReport struct {
	Name          string
	Completed     int64
	BandwidthMBps float64
	MeanMs        float64
	P95Ms         float64
	P99Ms         float64
	SLOViolations float64
	HarvestedChls int
	LentChls      int
}

// Report builds the current summary without advancing time. Rates cover
// the interval since the last ResetMetrics (or the start of the run).
func (s *Simulator) Report() *Report {
	now := s.eng.Now()
	r := &Report{Elapsed: now - s.resetAt}
	fc := s.plat.FlashConfig()
	peak := fc.ChannelBandwidth() * float64(fc.Channels)
	var total int64
	dur := float64(now-s.resetAt) / 1e9
	if dur <= 0 {
		dur = 1
	}
	for _, t := range s.tenants {
		h := t.v.TotalHist()
		tr := TenantReport{
			Name:          t.Name,
			Completed:     t.v.Completed(),
			BandwidthMBps: float64(t.v.TotalBytesMoved()) / dur / 1e6,
			MeanMs:        h.Mean() / 1e6,
			P95Ms:         float64(h.P95()) / 1e6,
			P99Ms:         float64(h.P99()) / 1e6,
			HarvestedChls: s.plat.GSB().HarvestedChannels(t.v.ID()),
			LentChls:      s.plat.GSB().HarvestableChannels(t.v.ID()),
		}
		if h.Count() > 0 && t.v.SLO() > 0 {
			tr.SLOViolations = float64(h.CountAbove(t.v.SLO())) / float64(h.Count())
		}
		total += t.v.TotalBytesMoved()
		r.Tenants = append(r.Tenants, tr)
	}
	r.Utilization = float64(total) / (peak * dur)
	return r
}

// String renders the report as a table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed %.2fs, SSD utilization %.1f%%\n", float64(r.Elapsed)/1e9, r.Utilization*100)
	fmt.Fprintf(&b, "%-14s %10s %10s %8s %8s %8s %8s %6s %5s\n",
		"tenant", "completed", "BW MB/s", "mean ms", "P95 ms", "P99 ms", "SLO vio", "harv", "lent")
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, "%-14s %10d %10.1f %8.2f %8.2f %8.2f %7.2f%% %6d %5d\n",
			t.Name, t.Completed, t.BandwidthMBps, t.MeanMs, t.P95Ms, t.P99Ms,
			t.SLOViolations*100, t.HarvestedChls, t.LentChls)
	}
	return b.String()
}

// Experiment aliases: the full harness used by fleetbench is available to
// library users for custom studies.
type (
	// ExperimentOptions scales a harness experiment.
	ExperimentOptions = harness.Options
	// ExperimentResult is one (mix, policy) outcome.
	ExperimentResult = harness.Result
	// Mix is a set of collocated workloads.
	Mix = harness.MixSpec
	// Policy selects a §4.1 comparison policy.
	Policy = harness.PolicyKind
)

// The comparison policies.
const (
	PolicyHardwareIsolation = harness.PolHardware
	PolicySSDKeeper         = harness.PolSSDKeeper
	PolicyAdaptive          = harness.PolAdaptive
	PolicySoftwareIsolation = harness.PolSoftware
	PolicyFleetIO           = harness.PolFleetIO
)

// DefaultExperimentOptions returns fast deterministic settings.
func DefaultExperimentOptions() ExperimentOptions { return harness.DefaultOptions() }

// WithPretrainedOptions seeds experiment options with the process-wide
// pretrained FleetIO model (training it on first use).
func WithPretrainedOptions(opt ExperimentOptions) ExperimentOptions {
	return harness.WithPretrained(opt)
}

// NewMix pairs workloads into a collocation.
func NewMix(label string, workloads ...string) Mix {
	return harness.MixSpec{Label: label, Workloads: workloads}
}

// RunExperiment calibrates SLOs hardware-isolated, then measures the mix
// under the policy.
func RunExperiment(mix Mix, policy Policy, opt ExperimentOptions) ExperimentResult {
	slos := harness.Calibrate(mix, opt)
	return harness.RunOne(mix, policy, slos, opt)
}

// CompareExperiment runs several policies with one shared calibration.
func CompareExperiment(mix Mix, policies []Policy, opt ExperimentOptions) []ExperimentResult {
	return harness.Compare(mix, policies, opt)
}

// SortTenantsByName orders a report deterministically (helper for tests).
func (r *Report) SortTenantsByName() {
	sort.Slice(r.Tenants, func(i, j int) bool { return r.Tenants[i].Name < r.Tenants[j].Name })
}

// WorkloadType describes how the §3.4 classifier types a workload.
type WorkloadType struct {
	// Cluster is the k-means cluster id.
	Cluster int
	// Alpha is the reward coefficient agents of this type use (Eq. 1).
	Alpha float64
}

// ClassifyWorkloads runs the workload-type pipeline on every built-in
// profile and returns each one's cluster and fine-tuned α.
func ClassifyWorkloads() map[string]WorkloadType {
	tm, alphas := harness.TypeModel()
	out := make(map[string]WorkloadType, len(workload.Names()))
	for _, name := range workload.Names() {
		c := tm.WorkloadCluster[name]
		a, ok := alphas[c]
		if !ok {
			a = core.UnifiedAlpha
		}
		out[name] = WorkloadType{Cluster: c, Alpha: a}
	}
	return out
}
