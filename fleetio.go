package fleetio

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/nn"
	"repro/internal/sim"
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

// The experiment harness behind cmd/fleetbench, re-exported: a Simulator
// and a CompareExperiment run are the same device stack under the same
// options, so either reproduces a figure's number.
type (
	// ExperimentOptions sizes the simulated SSD (Table 3's 16 channels × 4
	// chips with a scaled-down block count), sets the seed and the RL
	// decision window, and optionally attaches a pretrained model, fault
	// injection, a temporal workload shape or an observer.
	ExperimentOptions = harness.Options
	// ExperimentResult is one (mix, policy) outcome.
	ExperimentResult = harness.Result
	// Mix is a set of collocated workloads.
	Mix = harness.MixSpec
	// Policy selects a §4.1 comparison policy.
	Policy = harness.PolicyKind
	// TenantSpec describes one tenant of a Simulator: its workload (one of
	// Workloads()), the channels it owns (hardware isolation) or shares
	// (software isolation), an optional rate limit and logical capacity,
	// its tail-latency SLO, and the fraction of its FTL prefilled before
	// the run so garbage collection is live.
	TenantSpec = harness.TenantSpec
)

// The comparison policies.
const (
	PolicyHardwareIsolation = harness.PolHardware
	PolicySSDKeeper         = harness.PolSSDKeeper
	PolicyAdaptive          = harness.PolAdaptive
	PolicySoftwareIsolation = harness.PolSoftware
	PolicyFleetIO           = harness.PolFleetIO
)

// TenantSpec.Isolation values.
const (
	HardwareIsolated = vssd.HardwareIsolated
	SoftwareIsolated = vssd.SoftwareIsolated
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

// CompareExperiment calibrates the mix's SLOs hardware-isolated, then
// measures it under every policy.
func CompareExperiment(mix Mix, policies []Policy, opt ExperimentOptions) []ExperimentResult {
	return harness.Compare(mix, policies, opt)
}

// ChannelRange returns the channels [lo, hi).
func ChannelRange(lo, hi int) []int { return harness.ChannelRange(lo, hi) }

// Workloads lists the built-in workload profiles (Table 4 plus the
// pretraining set).
func Workloads() []string { return workload.Names() }

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
// workloads and returns the shared model — the one WithPretrainedOptions
// installs.
func PretrainedModel() *Model {
	return &Model{net: harness.PretrainedModel()}
}

// Simulator is the interactive entry point: one shared SSD, its tenants
// and a management policy on a deterministic virtual clock. It is the
// harness's single-device run driven step by step, so observers, fault
// injection and workload shapes set in the options all apply.
type Simulator struct{ run *harness.Run }

// NewSimulator builds an empty device. Of the options, Warmup and
// Duration are unused: Run and ResetMetrics decide the phases.
func NewSimulator(opt ExperimentOptions) *Simulator {
	return &Simulator{run: harness.NewRun(opt)}
}

// AddTenant creates a vSSD running the spec's workload and returns the
// tenant's index: its row in every Report and its handle for
// MakeHarvestable and Harvest. Add every tenant before Use and Run: the
// policy's agents, recorders and α are fixed when it is installed, so
// AddTenant after either panics.
func (s *Simulator) AddTenant(spec TenantSpec) int { return s.run.AddTenant(spec) }

// Use installs the management policy: PolicyFleetIO deploys the paper's
// multi-agent RL policy with admission control exactly as the figures
// measure it (agents typed from their tenants' workloads, fine-tuning
// online, seeded from the options' pretrained model if any); the others
// are the §4.1 baselines. Call after all tenants are added and before Run
// (Use after Run panics: the policy the first Run started keeps deciding);
// without it the tenants stay as configured (Hardware Isolation).
func (s *Simulator) Use(policy Policy) { s.run.AttachPolicy(policy) }

// Run advances virtual time by d, starting workloads and the policy on
// first call, and returns the report of the interval since the last
// ResetMetrics (or the start of the run).
func (s *Simulator) Run(d Time) *Report {
	s.run.Start()
	s.run.Advance(s.run.Now() + d)
	return s.Report()
}

// MakeHarvestable executes a manual Make_Harvestable action: the tenant's
// harvestable budget becomes `channels` flash channels (0 reclaims
// everything, lazily for dirty blocks).
func (s *Simulator) MakeHarvestable(tenant, channels int) {
	s.apply(tenant, vssd.ActMakeHarvestable, channels)
}

// Harvest executes a manual Harvest action: the tenant targets `channels`
// harvested flash channels.
func (s *Simulator) Harvest(tenant, channels int) { s.apply(tenant, vssd.ActHarvest, channels) }

func (s *Simulator) apply(tenant int, kind vssd.ActionKind, channels int) {
	plat := s.run.Platform()
	bw := float64(channels) * plat.FlashConfig().ChannelBandwidth()
	plat.Apply(vssd.Action{VSSD: tenant, Kind: kind, BW: bw})
}

// ResetMetrics clears per-tenant run counters (e.g. after a warmup phase);
// subsequent reports cover only the interval since this call.
func (s *Simulator) ResetMetrics() { s.run.BeginMeasuring() }

// Report is a summary of the interval since the last ResetMetrics: the
// harness Result (utilization and one row per tenant, in AddTenant order)
// plus what only an interactive run has.
type Report struct {
	harness.Result
	Elapsed Time
	// HarvestedChls and LentChls are, per tenant, the channels it currently
	// harvests from others and offers to others through ghost superblocks.
	HarvestedChls, LentChls []int
}

// Report builds the current summary without advancing time.
func (s *Simulator) Report() *Report {
	r := &Report{Result: s.run.Collect(), Elapsed: s.run.Measured()}
	gsbm := s.run.Platform().GSB()
	for i := range r.Tenants {
		r.HarvestedChls = append(r.HarvestedChls, gsbm.HarvestedChannels(i))
		r.LentChls = append(r.LentChls, gsbm.HarvestableChannels(i))
	}
	return r
}

// String renders the report: the harness's per-tenant table under an
// elapsed-time line, then the channel counts.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed %.2fs\n", float64(r.Elapsed)/1e9)
	r.WriteTable(&b)
	fmt.Fprintf(&b, "harvested channels %v, lent channels %v\n", r.HarvestedChls, r.LentChls)
	return b.String()
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
