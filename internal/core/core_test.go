package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/admission"
	"repro/internal/ftl"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/vssd"
	"repro/internal/workload"
)

func testPlatform(channels int) (*sim.Engine, *vssd.Platform) {
	eng := sim.NewEngine()
	pc := vssd.DefaultPlatformConfig()
	pc.Flash.Channels = channels
	pc.Flash.ChipsPerChannel = 2
	pc.Flash.BlocksPerChip = 64
	pc.Flash.PagesPerBlock = 32
	return eng, vssd.NewPlatform(eng, pc)
}

func snapWith(bw int64, dur sim.Time, vioRate float64, reqs int64) vssd.WindowSnapshot {
	var w metrics.Window
	vio := int64(vioRate * float64(reqs))
	for i := int64(0); i < reqs; i++ {
		lat := int64(100)
		slo := int64(1000)
		if i < vio {
			lat = 2000
		}
		w.Complete(false, bw/reqs, lat, 10, slo)
	}
	return vssd.WindowSnapshot{Duration: dur, Window: w}
}

func TestSingleRewardEq1(t *testing.T) {
	// BW = guaranteed, no violations, α=0 → reward exactly 1.
	s := snapWith(1000, sim.Second, 0, 10)
	if got := singleReward(0, s, 1000, 0.01); math.Abs(got-1) > 1e-9 {
		t.Fatalf("reward = %v, want 1", got)
	}
	// α=1 → pure violation penalty.
	s2 := snapWith(1000, sim.Second, 0.5, 10)
	got := singleReward(1, s2, 1000, 0.01)
	if math.Abs(got-(-50)) > 1e-9 {
		t.Fatalf("reward = %v, want -50 (0.5/0.01)", got)
	}
}

// Property: reward is non-decreasing in bandwidth and non-increasing in
// violation rate.
func TestRewardMonotonicityProperty(t *testing.T) {
	f := func(bwA, bwB uint16, vioA, vioB uint8) bool {
		alpha := 0.025
		mk := func(bw int64, vio float64) float64 {
			s := snapWith(int64(bw)*100+100, sim.Second, vio, 20)
			return singleReward(alpha, s, 5000, 0.01)
		}
		loBW, hiBW := int64(bwA), int64(bwB)
		if loBW > hiBW {
			loBW, hiBW = hiBW, loBW
		}
		if mk(hiBW, 0.1) < mk(loBW, 0.1)-1e-9 {
			return false
		}
		loV, hiV := float64(vioA%100)/100, float64(vioB%100)/100
		if loV > hiV {
			loV, hiV = hiV, loV
		}
		return mk(100, hiV) <= mk(100, loV)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// mixRewards is mixRewardsInto with fresh storage.
func mixRewards(single []float64, beta float64) []float64 {
	return mixRewardsInto(single, make([]float64, len(single)), beta)
}

func TestMixRewardsEq2(t *testing.T) {
	single := []float64{1.0, 0.5, 0.0}
	mixed := mixRewards(single, 0.6)
	// Agent 0: 0.6*1 + 0.4*(0.25) = 0.7
	if math.Abs(mixed[0]-0.7) > 1e-9 {
		t.Fatalf("mixed[0] = %v", mixed[0])
	}
	// Agent 2: 0.6*0 + 0.4*0.75 = 0.3
	if math.Abs(mixed[2]-0.3) > 1e-9 {
		t.Fatalf("mixed[2] = %v", mixed[2])
	}
	// β=1 → unchanged (Customized-Local).
	selfish := mixRewards(single, 1.0)
	for i := range single {
		if selfish[i] != single[i] {
			t.Fatal("β=1 must keep own rewards")
		}
	}
	// Single agent unchanged regardless of β.
	if got := mixRewards([]float64{0.42}, 0.6); got[0] != 0.42 {
		t.Fatal("single agent reward must pass through")
	}
}

func TestMixRewardsConservesMean(t *testing.T) {
	f := func(raw []float64, beta8 uint8) bool {
		if len(raw) < 2 {
			return true
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			// Keep magnitudes in a realistic reward range; at 1e308 the
			// conservation identity drowns in floating-point error.
			raw[i] = math.Mod(v, 100)
		}
		beta := float64(beta8%101) / 100
		mixed := mixRewards(raw, beta)
		var a, b float64
		for i := range raw {
			a += raw[i]
			b += mixed[i]
		}
		return math.Abs(a-b) < 1e-6*math.Max(1, math.Abs(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeWindowRangesAndSemantics(t *testing.T) {
	s := snapWith(64_000_000, sim.Second, 0.5, 100)
	s.InGC = true
	s.Priority = ftl.PriorityHigh
	s.QueueLen = 10
	s.InflightPages = 6
	s.AvailCapacity = 500
	sc := stateScales{GuaranteedBW: 64e6, IOPSScale: 100, LatScale: 1000, CapScale: 1000, QueueScale: 16}
	v := encodeWindow(s, sc, 200, 0.3)
	if math.Abs(v[0]-1.0) > 0.01 {
		t.Fatalf("BW state = %v, want ~1", v[0])
	}
	if v[3] != 0.5 {
		t.Fatalf("SLO_Vio state = %v", v[3])
	}
	if v[4] != 1.0 {
		t.Fatalf("QDelay state = %v", v[4])
	}
	if v[6] != 0.5 {
		t.Fatalf("capacity state = %v", v[6])
	}
	if v[7] != 1 {
		t.Fatal("In_GC not encoded")
	}
	if v[8] != 1.0 {
		t.Fatalf("priority state = %v", v[8])
	}
	if v[10] != 0.3 {
		t.Fatalf("shared vio state = %v", v[10])
	}
	for i, x := range v {
		if math.IsNaN(x) || x < 0 || x > 4 {
			t.Fatalf("state[%d] = %v out of range", i, x)
		}
	}
}

func TestHistoryStacking(t *testing.T) {
	h := newHistoryWidth(3, StatesPerWindow)
	v := h.vector()
	if len(v) != 33 {
		t.Fatalf("dim = %d", len(v))
	}
	for _, x := range v {
		if x != 0 {
			t.Fatal("empty history must be zero")
		}
	}
	mk := func(val float64) []float64 {
		s := make([]float64, StatesPerWindow)
		for i := range s {
			s[i] = val
		}
		return s
	}
	h.push(mk(1))
	h.push(mk(2))
	v = h.vector()
	if v[0] != 0 || v[StatesPerWindow] != 1 || v[2*StatesPerWindow] != 2 {
		t.Fatalf("padding/order wrong: %v", v[:3*StatesPerWindow:3*StatesPerWindow])
	}
	h.push(mk(3))
	h.push(mk(4)) // evicts 1
	v = h.vector()
	if v[0] != 2 || v[StatesPerWindow] != 3 || v[2*StatesPerWindow] != 4 {
		t.Fatal("eviction order wrong")
	}
}

func TestRunnerRotatesAndApplies(t *testing.T) {
	eng, p := testPlatform(2)
	p.AddVSSD(vssd.Config{Name: "a", Channels: []int{0, 1}})
	calls := 0
	pol := policyFunc{
		name: "test",
		fn: func(now sim.Time, snaps []vssd.WindowSnapshot) []vssd.Action {
			calls++
			if len(snaps) != 1 {
				t.Fatalf("snaps = %d", len(snaps))
			}
			return []vssd.Action{{VSSD: 0, Kind: vssd.ActSetPriority, Level: ftl.PriorityHigh}}
		},
	}
	r := &Runner{Plat: p, Policy: pol, Window: 100 * sim.Millisecond}
	r.Start()
	r.Start() // idempotent
	eng.RunUntil(550 * sim.Millisecond)
	if calls != 5 {
		t.Fatalf("policy called %d times, want 5", calls)
	}
	if r.Windows() != 5 {
		t.Fatalf("windows = %d", r.Windows())
	}
	if p.VSSD(0).Priority() != ftl.PriorityHigh {
		t.Fatal("action not applied")
	}
}

type policyFunc struct {
	name string
	fn   func(sim.Time, []vssd.WindowSnapshot) []vssd.Action
}

func (p policyFunc) Name() string { return p.name }
func (p policyFunc) Decide(now sim.Time, s []vssd.WindowSnapshot) []vssd.Action {
	return p.fn(now, s)
}

func TestStaticPolicy(t *testing.T) {
	s := StaticPolicy{PolicyName: "Hardware Isolation"}
	if s.Name() != "Hardware Isolation" {
		t.Fatal("name wrong")
	}
	if s.Decide(0, nil) != nil {
		t.Fatal("static policy must not act")
	}
}

func TestModeStrings(t *testing.T) {
	if ModeFull.String() != "FleetIO" ||
		ModeUnifiedGlobal.String() != "FleetIO-Unified-Global" ||
		ModeCustomizedLocal.String() != "FleetIO-Customized-Local" {
		t.Fatal("mode strings wrong")
	}
}

func TestFleetIOConstruction(t *testing.T) {
	_, p := testPlatform(4)
	p.AddVSSD(vssd.Config{Name: "ls", Channels: []int{0, 1}})
	p.AddVSSD(vssd.Config{Name: "bi", Channels: []int{2, 3}})
	f := NewFleetIO(p, FleetIOConfig{Seed: 1})
	if len(f.agents) != 2 {
		t.Fatalf("agents = %d", len(f.agents))
	}
	if f.Name() != "FleetIO" {
		t.Fatal("name wrong")
	}
	// Customized-Local forces β=1.
	if b := ModeCustomizedLocal.beta(); b != 1.0 {
		t.Fatalf("β = %v in Customized-Local", b)
	}
	// Independent nets per agent by default.
	if f.agents[0].ppo.Net == f.agents[1].ppo.Net {
		t.Fatal("agents must have independent networks by default")
	}
	fs := NewFleetIO(p, FleetIOConfig{ShareModel: true, Seed: 1})
	if fs.agents[0].ppo.Net != fs.agents[1].ppo.Net {
		t.Fatal("ShareModel must share one network")
	}
}

func TestFleetIOEndToEnd(t *testing.T) {
	eng, p := testPlatform(4)
	ls := p.AddVSSD(vssd.Config{Name: "ls", Channels: []int{0, 1}, SLO: 2 * sim.Millisecond})
	bi := p.AddVSSD(vssd.Config{Name: "bi", Channels: []int{2, 3}, MaxInflightPages: 256})
	gls := workload.NewGenerator(eng, ls, workload.ByName("YCSB"), sim.NewRNG(2))
	gbi := workload.NewGenerator(eng, bi, workload.ByName("TeraSort"), sim.NewRNG(3))
	gls.Start()
	gbi.Start()

	f := NewFleetIO(p, FleetIOConfig{Train: true, TrainEvery: 5, Seed: 4})
	adm := admission.NewController(p, nil)
	r := &Runner{Plat: p, Adm: adm, Policy: f, Window: 100 * sim.Millisecond}
	r.Start()
	eng.RunUntil(6 * sim.Second)
	if r.Windows() < 50 {
		t.Fatalf("only %d windows elapsed", r.Windows())
	}
	// Agents acted: harvest machinery must have been exercised (created or
	// attempted) — at minimum the admission controller processed batches.
	if adm.Stats().Admitted == 0 {
		t.Fatal("no actions admitted in 6s of decisions")
	}
	// Online fine-tuning happened.
	if len(f.TrainStats()) == 0 {
		t.Fatal("no PPO updates ran")
	}
}

func TestFleetIOSetAlpha(t *testing.T) {
	_, p := testPlatform(2)
	p.AddVSSD(vssd.Config{Name: "a", Channels: []int{0, 1}})
	f := NewFleetIO(p, FleetIOConfig{Seed: 1})
	if f.agents[0].alpha != UnifiedAlpha {
		t.Fatalf("default α = %v", f.agents[0].alpha)
	}
	f.SetAlpha(0, AlphaLC1)
	if f.agents[0].alpha != AlphaLC1 {
		t.Fatal("SetAlpha failed")
	}
}

func TestPaperAlphaConstants(t *testing.T) {
	if AlphaLC1 != 2.5e-2 || AlphaLC2 != 5e-3 || AlphaBI != 0 || UnifiedAlpha != 0.01 {
		t.Fatal("α constants must match §3.8")
	}
	if defaultBeta != 0.6 {
		t.Fatal("β must match Table 3")
	}
}

// TestDecideBatchedMatchesScalar pins Decide's two row groupings — all n
// agents in one network pass, or one row per pass — to identical action
// streams over the same simulated workload, without a production switch:
// the grouping is chosen by configuration that cannot otherwise change the
// actions. deploy compares a shared network (one n-row greedy pass per
// window) with per-agent clones of the same pretrained network (n one-row
// passes; greedy, so no RNG). The two training modes compare TrainEvery
// 1<<30 (no window is a train window: one n-row pass) with TrainEvery 1
// (every window is: one-row passes, in case an agent trains the shared
// network mid-loop) on a run shorter than MiniBatch windows, so no update
// can fire in either and the shared RNG must be drawn in the same (agent,
// head) order. The figure-level pin is harness.TestCompareGolden, whose
// golden predates the batched kernels; the update itself is pinned by
// rl.TestTrainBatchedMatchesScalar.
func TestDecideBatchedMatchesScalar(t *testing.T) {
	type run struct {
		acts    []vssd.Action
		updates int
		par     []float64
	}
	do := func(cfg FleetIOConfig) run {
		eng, p := testPlatform(4)
		ls := p.AddVSSD(vssd.Config{Name: "ls", Channels: []int{0, 1}, SLO: 2 * sim.Millisecond})
		bi := p.AddVSSD(vssd.Config{Name: "bi", Channels: []int{2, 3}, MaxInflightPages: 256})
		gls := workload.NewGenerator(eng, ls, workload.ByName("YCSB"), sim.NewRNG(2))
		gbi := workload.NewGenerator(eng, bi, workload.ByName("TeraSort"), sim.NewRNG(3))
		gls.Start()
		gbi.Start()
		cfg.Seed = 4
		f := NewFleetIO(p, cfg)
		var out run
		adm := admission.NewController(p, nil)
		// Capture the per-window actions via a wrapping policy.
		r := &Runner{Plat: p, Adm: adm, Policy: capturePolicy{f, &out.acts}, Window: 100 * sim.Millisecond}
		r.Start()
		eng.RunUntil(3 * sim.Second) // 30 windows < MiniBatch
		out.updates = len(f.TrainStats())
		out.par = f.agents[1].ppo.Net.Params()
		return out
	}
	pretrained := func() *nn.ActorCritic {
		return nn.NewActorCritic(DefaultHistoryWindows*StatesPerWindow, 50,
			[]int{len(HarvestLevels), len(HarvestLevels), len(PriorityLevels)}, sim.NewRNG(9))
	}
	for _, mode := range []struct {
		name            string
		oneRow, grouped FleetIOConfig
	}{
		{"deploy",
			FleetIOConfig{Pretrained: pretrained()},
			FleetIOConfig{Pretrained: pretrained(), ShareModel: true}},
		{"train-sample",
			FleetIOConfig{ShareModel: true, Train: true, TrainEvery: 1},
			FleetIOConfig{ShareModel: true, Train: true, TrainEvery: 1 << 30}},
		{"train-greedy",
			FleetIOConfig{ShareModel: true, Train: true, GreedyCollect: true, TrainEvery: 1},
			FleetIOConfig{ShareModel: true, Train: true, GreedyCollect: true, TrainEvery: 1 << 30}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			s := do(mode.oneRow)
			b := do(mode.grouped)
			if len(s.acts) == 0 || len(s.acts) != len(b.acts) {
				t.Fatalf("action streams differ in length: %d vs %d", len(s.acts), len(b.acts))
			}
			for i := range s.acts {
				sa, ba := s.acts[i], b.acts[i]
				if sa.VSSD != ba.VSSD || sa.Kind != ba.Kind || sa.BW != ba.BW || sa.Level != ba.Level {
					t.Fatalf("action %d diverges: %+v != %+v", i, sa, ba)
				}
			}
			if s.updates != 0 || b.updates != 0 {
				t.Fatalf("PPO updates fired (%d, %d): the run must stay shorter than MiniBatch windows", s.updates, b.updates)
			}
			for i := range s.par {
				if s.par[i] != b.par[i] {
					t.Fatalf("network param %d diverges", i)
				}
			}
		})
	}
}

// capturePolicy appends every decided action to a log before passing them on.
type capturePolicy struct {
	*FleetIO
	log *[]vssd.Action
}

func (c capturePolicy) Decide(now sim.Time, snaps []vssd.WindowSnapshot) []vssd.Action {
	acts := c.FleetIO.Decide(now, snaps)
	*c.log = append(*c.log, acts...)
	return acts
}
