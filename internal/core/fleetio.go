package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vssd"
)

// HarvestLevels are the channel counts each harvest-related action head
// can request (head index → channels). Level 0 means "none".
var HarvestLevels = []int{0, 1, 2, 4, 8}

// PriorityLevels maps the Set_Priority head to ftl scheduling levels
// (low/medium/high).
var PriorityLevels = []int{1, 2, 3}

// Mode selects the Figure 15 reward variants.
type Mode uint8

// FleetIO reward modes.
const (
	// ModeFull is FleetIO proper: per-type α and β-mixed rewards.
	ModeFull Mode = iota
	// ModeUnifiedGlobal uses the unified α=0.01 for every agent (keeps β).
	ModeUnifiedGlobal
	// ModeCustomizedLocal keeps per-type α but sets β=1 (selfish agents).
	ModeCustomizedLocal
)

// beta is the mode's Eq. 2 mixing coefficient: the paper's 0.6, or 1
// (every agent keeps only its own reward) under Customized-Local.
func (m Mode) beta() float64 {
	if m == ModeCustomizedLocal {
		return 1.0
	}
	return defaultBeta
}

func (m Mode) String() string {
	switch m {
	case ModeUnifiedGlobal:
		return "FleetIO-Unified-Global"
	case ModeCustomizedLocal:
		return "FleetIO-Customized-Local"
	default:
		return "FleetIO"
	}
}

// FleetIOConfig configures the policy.
type FleetIOConfig struct {
	Mode       Mode // also fixes the Eq. 2 β: see Mode.beta
	Train      bool // online fine-tuning
	TrainEvery int  // windows between PPO updates (paper: 10)
	TypeEvery  int  // windows between workload re-typing (0 = off)
	Seed       int64

	// Pretrained, when set, seeds every agent with a copy of this network.
	Pretrained *nn.ActorCritic
	// ShareModel makes all agents train one shared network (pretraining
	// mode); otherwise each agent fine-tunes its own copy.
	ShareModel bool
	// GreedyCollect makes training-mode action selection greedy
	// (ActGreedyEvalBatch) while still recording transitions; the trainer's
	// held-out eval episodes use it to score a frozen policy snapshot.
	GreedyCollect bool

	// ErrorRateState appends the per-tenant NAND error-rate feature
	// (write retries / requests per window) to every window state, used
	// by fault-injection scenarios. It widens the network input, so it is
	// incompatible with a Pretrained network built at the base width.
	ErrorRateState bool

	// Tiered makes the agent a hybrid rack's tier agent, in two parts:
	//   - a fourth categorical action head of width len(tierLevels), the
	//     placement head: a per-window tier hint (fast vs dense) for the
	//     agent's tenant. The hint is not a device action — emit issues
	//     the same three vssd.Actions either way — it is read by the fleet
	//     control plane at epoch barriers via TierHint and turned into
	//     promote/demote migrations there;
	//   - the fast-tier occupancy feature (fed by the control plane via
	//     SetTierOcc at epoch barriers) appended to every window state,
	//     following the ErrorRateState width pattern.
	// Like ErrorRateState it widens the network input, so it is
	// incompatible with a Pretrained network built at the base width. Off
	// (the default), the head layout, the state width and every RNG draw
	// are unchanged, so the tier-off path stays byte-identical.
	Tiered bool

	// TypeModel classifies workloads for per-type α (§3.4); nil keeps the
	// unified α.
	TypeModel *cluster.Model
	// AlphaByCluster maps the TypeModel's cluster ids to α values.
	AlphaByCluster map[int]float64
	// RL overrides PPO hyperparameters, resolved by rl.Config.Resolved.
	RL rl.Config

	// Obs traces per-window decisions (the three issued actions plus the
	// single/mixed rewards of the closing window); nil disables.
	Obs *obs.Recorder
}

// agent is the per-vSSD RL state.
type agent struct {
	id     int
	ppo    *rl.PPO
	buf    rl.Buffer
	hist   *history
	scales stateScales
	alpha  float64

	pending     bool
	lastState   []float64
	lastActions []int
	lastLogProb float64
	lastValue   float64

	// tierHint is the last placement-head sample (Tiered on); -1 until
	// the agent's first decision window closes. tierOcc is the fast-tier
	// occupancy the control plane last pushed (Tiered on).
	tierHint int
	tierOcc  float64

	rec *trace.Recorder
}

// FleetIO is the paper's policy: one RL agent per vSSD issuing Harvest,
// Make_Harvestable, and Set_Priority actions every window.
type FleetIO struct {
	cfg    FleetIOConfig
	plat   *vssd.Platform
	agents []*agent
	shared *rl.PPO
	rng    *sim.RNG

	windows    int64
	trainStats []rl.TrainStats

	// Per-window scratch, reused across Decide calls (a pretraining run
	// makes hundreds of thousands of them).
	singleS, mixedS, iopsS, vioS []float64
	stateRows                    []float64
	actsOut                      []vssd.Action
	stateDim                     int
}

// NewFleetIO builds the policy for a platform's current vSSDs.
func NewFleetIO(plat *vssd.Platform, cfg FleetIOConfig) *FleetIO {
	if cfg.TrainEvery == 0 {
		cfg.TrainEvery = 10
	}
	cfg.RL = cfg.RL.Resolved()
	f := &FleetIO{cfg: cfg, plat: plat, rng: sim.NewRNG(cfg.Seed)}
	f.stateDim = DefaultHistoryWindows * f.stateWidth()
	if cfg.ShareModel {
		// Shared-model training continues on the provided network in place
		// (pretraining episodes chain); without one, a fresh net is built.
		net := cfg.Pretrained
		if net == nil {
			net = nn.NewActorCritic(f.stateDim, 50, f.heads(), f.rng.Split(-1))
		}
		f.shared = rl.New(net, cfg.RL, f.rng.Split(-2))
	}
	f.SyncAgents()
	return f
}

// stateWidth is the per-window feature count under the configured
// optional state extensions.
func (f *FleetIO) stateWidth() int {
	width := StatesPerWindow
	if f.cfg.ErrorRateState {
		width++
	}
	if f.cfg.Tiered {
		width++
	}
	return width
}

// heads is the action-head layout: the three device heads, plus the
// placement head when configured.
func (f *FleetIO) heads() []int {
	heads := []int{len(HarvestLevels), len(HarvestLevels), len(PriorityLevels)}
	if f.cfg.Tiered {
		heads = append(heads, len(tierLevels))
	}
	return heads
}

func (f *FleetIO) newNet(r *sim.RNG) *nn.ActorCritic {
	if f.cfg.Pretrained != nil {
		return f.cfg.Pretrained.Clone()
	}
	return nn.NewActorCritic(f.stateDim, 50, f.heads(), r)
}

// SyncAgents appends an agent for every platform vSSD beyond the current
// agent count. The constructor uses it for the initial build; fleet
// shards call it again from the control plane after placing or migrating
// a tenant mid-run (vssd.Platform only ever appends), so agent i is
// always vSSD i and per-agent RNG streams (Split by index) stay
// deterministic regardless of when each vSSD appeared.
func (f *FleetIO) SyncAgents() {
	chanBW := f.plat.FlashConfig().ChannelBandwidth()
	width := f.stateWidth()
	for i := len(f.agents); i < len(f.plat.VSSDs()); i++ {
		v := f.plat.VSSD(i)
		a := &agent{
			id:       i,
			hist:     newHistoryWidth(DefaultHistoryWindows, width),
			alpha:    UnifiedAlpha,
			tierHint: -1,
			scales:   defaultScales(len(v.Tenant().Channels()), chanBW, int64(v.Tenant().LogicalPages())*int64(f.plat.FlashConfig().PageSize)),
		}
		if f.cfg.ShareModel {
			a.ppo = f.shared
		} else {
			r := f.rng.Split(int64(i))
			a.ppo = rl.New(f.newNet(r), f.cfg.RL, r.Split(7))
		}
		f.agents = append(f.agents, a)
	}
}

// Name implements Policy.
func (f *FleetIO) Name() string { return f.cfg.Mode.String() }

// SetRecorder attaches a block-trace recorder for workload typing (§3.4);
// the harness wires each vSSD's generator recorder here.
func (f *FleetIO) SetRecorder(vssdID int, rec *trace.Recorder) {
	f.agents[vssdID].rec = rec
}

// SetAlpha pins an agent's reward coefficient (used by tests and the
// α-tuning pipeline).
func (f *FleetIO) SetAlpha(vssdID int, alpha float64) { f.agents[vssdID].alpha = alpha }

// TierHint returns the agent's last placement-head sample (a tierLevels
// value), or -1 before its first decision window closes or when the
// placement head is off. The fleet control plane reads it at epoch
// barriers.
func (f *FleetIO) TierHint(vssdID int) int { return f.agents[vssdID].tierHint }

// SetTierOcc pushes the fast-tier occupancy the agent observes in its
// next window state (Tiered on). Called by the fleet control plane
// at epoch barriers, between the shard's decision windows.
func (f *FleetIO) SetTierOcc(vssdID int, occ float64) { f.agents[vssdID].tierOcc = occ }

// TrainStats returns PPO statistics collected so far.
func (f *FleetIO) TrainStats() []rl.TrainStats { return f.trainStats }

// DrainRollouts returns each agent's collected transitions as a fresh
// buffer — the final transition of each marked episode-terminal — and
// clears the per-agent buffers. Collection-only runs (TrainEvery set past
// the episode length) use this to hand rollouts to an external learner.
func (f *FleetIO) DrainRollouts() []*rl.Buffer {
	out := make([]*rl.Buffer, len(f.agents))
	for i, a := range f.agents {
		b := &rl.Buffer{}
		b.Append(&a.buf)
		b.MarkDone()
		a.buf.Reset()
		a.pending = false
		out[i] = b
	}
	return out
}

// Decide implements Policy: reward the previous actions (Eq. 1 + Eq. 2),
// train periodically, re-type workloads, then act.
func (f *FleetIO) Decide(now sim.Time, snaps []vssd.WindowSnapshot) []vssd.Action {
	f.windows++
	n := len(f.agents)
	if n != len(snaps) {
		panic(fmt.Sprintf("core: %d snapshots for %d agents", len(snaps), n))
	}

	if cap(f.singleS) < n {
		f.singleS = make([]float64, n)
		f.mixedS = make([]float64, n)
		f.iopsS = make([]float64, n)
		f.vioS = make([]float64, n)
	}

	// Rewards for the window that just closed.
	single := f.singleS[:n]
	for i, a := range f.agents {
		alpha := a.alpha
		if f.cfg.Mode == ModeUnifiedGlobal {
			alpha = UnifiedAlpha
		}
		single[i] = singleReward(alpha, snaps[i], a.scales.GuaranteedBW, sloVioGuar)
	}
	mixed := mixRewardsInto(single, f.mixedS, f.cfg.Mode.beta())

	// Shared states (Σ over collocated agents, §3.3.1).
	var totIOPS, totVio float64
	iops := f.iopsS[:n]
	vio := f.vioS[:n]
	for i, s := range snaps {
		dur := s.Duration
		if dur <= 0 {
			dur = 1
		}
		iops[i] = s.Window.IOPS(dur)
		vio[i] = s.Window.SLOViolationRate()
		totIOPS += iops[i]
		totVio += vio[i]
	}

	// Periodic workload re-typing.
	if f.cfg.TypeEvery > 0 && f.cfg.TypeModel != nil && f.windows%int64(f.cfg.TypeEvery) == 0 {
		f.retype()
	}

	actions := f.actsOut[:0]
	chanBW := f.plat.FlashConfig().ChannelBandwidth()

	// One loop over row groups, each one network pass. On a shared network
	// every agent's stacked state runs through it together, the categorical
	// sampling consuming the shared RNG in (agent, head) order. Otherwise a
	// group is one row: per-agent networks, and shared-network windows on
	// which an agent may train the network mid-loop, where the act/train
	// interleaving must stay agent by agent. How rows are grouped cannot
	// change an action (see internal/nn/batch.go); it is only faster.
	trainWindow := f.cfg.Train && f.windows%int64(f.cfg.TrainEvery) == 0
	group := 1
	if f.shared != nil && !trainWindow {
		group = n
	}
	if cap(f.stateRows) < group*f.stateDim {
		f.stateRows = make([]float64, group*f.stateDim)
	}
	rows := f.stateRows[:group*f.stateDim]
	for lo := 0; lo < n; lo += group {
		for i := lo; i < lo+group; i++ {
			a := f.agents[i]
			state := f.closeWindow(a, snaps[i], mixed[i], totIOPS-iops[i], totVio-vio[i])
			copy(rows[(i-lo)*f.stateDim:], state)
			if f.cfg.Train {
				a.lastState = state
			}
		}
		ppo := f.agents[lo].ppo
		var acts [][]int
		var lps, vals []float64
		switch {
		case !f.cfg.Train:
			acts = ppo.ActGreedyBatch(rows, group)
		case f.cfg.GreedyCollect:
			acts, lps, vals = ppo.ActGreedyEvalBatch(rows, group)
		default:
			// Both pretraining and deployed fine-tuning sample the
			// stochastic policy: exploration is what lets the agents keep
			// matching harvest supply to the collocated demand (the
			// harvested superblocks drain and must be re-negotiated every
			// few windows). The α-gated priority cap in emit bounds the
			// damage of a bad sample to the latency tenants.
			acts, lps, vals = ppo.ActBatch(rows, group)
		}
		for i := lo; i < lo+group; i++ {
			a, r := f.agents[i], i-lo
			if f.cfg.Train {
				a.lastActions = acts[r]
				a.lastLogProb = lps[r]
				a.lastValue = vals[r]
				a.pending = true
				if trainWindow && a.buf.Len() >= f.cfg.RL.MiniBatch {
					// The value just estimated for this state bootstraps
					// the return of the buffer's last transition.
					st := ppo.Train(&a.buf, a.lastValue)
					f.trainStats = append(f.trainStats, st)
				}
			}
			actions = f.emit(actions, i, a, acts[r], vio[i], chanBW, single[i], mixed[i])
		}
	}
	f.actsOut = actions
	return actions
}

// closeWindow records the transition ended by this window (when one is
// pending) and pushes the agent's new window state, returning the stacked
// state vector.
func (f *FleetIO) closeWindow(a *agent, snap vssd.WindowSnapshot, reward, otherIOPS, otherVio float64) []float64 {
	if a.pending && f.cfg.Train {
		a.buf.Add(rl.Transition{
			State:   a.lastState,
			Actions: a.lastActions,
			LogProb: a.lastLogProb,
			Value:   a.lastValue,
			Reward:  reward,
		})
	}
	ws := encodeWindow(snap, a.scales, otherIOPS, otherVio)
	if f.cfg.ErrorRateState {
		// Write retries caused by injected NAND program failures, per
		// completed request (always 0 without a fault injector).
		ws = append(ws, clamp(float64(snap.Window.Retries)/float64(max(snap.Window.Requests(), 1)), 0, 1))
	}
	if f.cfg.Tiered {
		ws = append(ws, clamp(a.tierOcc, 0, 1))
	}
	a.hist.push(ws)
	return a.hist.vector()
}

// emit applies the action guardrails and appends agent i's three per-window
// actions (and observability records) to the actions slice.
//
// Priority boosts exist "to help each vSSD meet the performance
// isolation goal" (§3.3.2). A bandwidth-typed agent (α=0) has no
// isolation term in its reward, so nothing stops it from squatting
// on the highest priority and starving collocated latency-sensitive
// tenants; cap it at medium. Conversely, a latency-typed agent that
// is currently blowing its SLO budget escalates immediately —
// §3.3.2's "if a vSSD experiences high SLO violations ... the RL
// agent will increase the priority level", enforced as a guardrail
// so one badly sampled action cannot cost a window of tail latency.
func (f *FleetIO) emit(actions []vssd.Action, i int, a *agent, acts []int, vioRate, chanBW, single, mixed float64) []vssd.Action {
	if f.cfg.Tiered {
		// The placement head is not a device action: the sample is parked
		// on the agent for the fleet control plane to read (TierHint) at
		// the next epoch barrier and turn into a promote/demote migration.
		a.tierHint = tierFromHead(acts[3])
	}
	level := PriorityLevels[acts[2]]
	if a.alpha <= 1e-9 {
		if level > 2 {
			level = 2
		}
	} else if vioRate > sloVioGuar && level < 3 {
		level = 3
	}
	makeBW := float64(HarvestLevels[acts[1]]) * chanBW
	harvestBW := float64(HarvestLevels[acts[0]]) * chanBW
	actions = append(actions,
		vssd.Action{VSSD: i, Kind: vssd.ActMakeHarvestable, BW: makeBW},
		vssd.Action{VSSD: i, Kind: vssd.ActHarvest, BW: harvestBW},
		vssd.Action{VSSD: i, Kind: vssd.ActSetPriority, Level: level},
	)
	if f.cfg.Obs.Enabled() {
		f.cfg.Obs.Reward(i, single, mixed)
		f.cfg.Obs.Decision(obs.KindMakeHarvestable, i, makeBW, 0)
		f.cfg.Obs.Decision(obs.KindHarvest, i, harvestBW, 0)
		f.cfg.Obs.Decision(obs.KindSetPriority, i, 0, level)
	}
	return actions
}

// retype re-classifies each vSSD's recent traffic and updates α (§3.4).
func (f *FleetIO) retype() {
	pageSize := f.plat.FlashConfig().PageSize
	for _, a := range f.agents {
		logical := int64(f.plat.VSSD(a.id).Tenant().LogicalPages())
		c, known, ok := f.cfg.TypeModel.ClassifyRecorder(a.rec, pageSize, logical)
		if !ok {
			continue
		}
		a.alpha = UnifiedAlpha
		if alpha, mapped := f.cfg.AlphaByCluster[c]; known && mapped {
			a.alpha = alpha
		}
	}
}
