package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vssd"
	"repro/internal/workload"
)

// Layer kernels: one layer's exported functions called in a loop, on the
// workload's device geometry and the heap depth its traced run observed.
// A kernel's number moves only when that layer's code does, which is
// what lets a change in wall_s_per_vsec be attributed. Each is sized to
// tens of milliseconds; all return host nanoseconds per operation.

// xorshift is the kernels' inline random stream: cheap enough not to
// show in a kernel that times tens of nanoseconds per operation.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

type holdState struct {
	eng    *sim.Engine
	rnd    xorshift
	spread uint64
}

// holdEvent is the classic hold model: each event reschedules itself a
// random delay ahead, so the heap stays at its initial depth.
func holdEvent(arg sim.EventArg, _ sim.Time) {
	h := arg.P.(*holdState)
	h.eng.ScheduleEvent(sim.Time(h.rnd.next()%h.spread), holdEvent, arg)
}

// kernelSim times Schedule+Step on an event heap held at depth.
func kernelSim(depth int) float64 {
	const n = 1_000_000
	if depth < 1 {
		depth = 1
	}
	eng := sim.NewEngine()
	h := &holdState{eng: eng, rnd: 88172645463325252, spread: uint64(depth) * 1000}
	arg := sim.EventArg{P: h}
	for i := 0; i < depth; i++ {
		eng.ScheduleEvent(sim.Time(h.rnd.next()%h.spread), holdEvent, arg)
	}
	for i := 0; i < depth; i++ { // settle the heap's capacity and order
		eng.Step()
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		eng.Step()
	}
	return float64(time.Since(t0)) / n
}

// flashLoop keeps a closed loop of one op kind flowing through a device
// on the allocation-free path (AcquireOp + package-level done handler).
type flashLoop struct {
	d      *flash.Device
	cfg    flash.Config
	kind   flash.OpKind
	rnd    xorshift
	issued int
	limit  int
}

func flashIssue(ctx any, _ int64, _ sim.Time, _ flash.OpStatus) {
	l := ctx.(*flashLoop)
	if l.issued >= l.limit {
		return
	}
	l.issued++
	op := l.d.AcquireOp()
	op.Kind = l.kind
	r := l.rnd.next()
	op.Addr = flash.PPA{Channel: int(r % uint64(l.cfg.Channels)), Chip: int((r >> 20) % uint64(l.cfg.ChipsPerChannel))}
	op.Done = flashIssue
	op.Ctx = l
	l.d.Submit(op)
}

func (l *flashLoop) run(eng *sim.Engine, n int) {
	l.issued, l.limit = 0, n
	for i := 0; i < 4*l.cfg.Channels && i < n; i++ {
		flashIssue(l, 0, 0, flash.StatusOK)
	}
	eng.Run()
}

// kernelFlash times one flash op of kind through channel queue, bus and
// cell, with four ops outstanding per channel.
func kernelFlash(cfg flash.Config, kind flash.OpKind) float64 {
	const n = 200_000
	eng := sim.NewEngine()
	l := &flashLoop{d: flash.NewDevice(eng, cfg), cfg: cfg, kind: kind, rnd: 2463534242}
	l.run(eng, 4096) // pools and queues reach working size
	t0 := time.Now()
	l.run(eng, n)
	return float64(time.Since(t0)) / n
}

// kernelPlatform builds a one-tenant platform on cfg for the FTL and
// vSSD kernels.
func kernelPlatform(cfg flash.Config) (*sim.Engine, *vssd.VSSD) {
	eng := sim.NewEngine()
	pc := vssd.DefaultPlatformConfig()
	pc.Flash = cfg
	plat := vssd.NewPlatform(eng, pc)
	chans := make([]int, cfg.Channels)
	for i := range chans {
		chans[i] = i
	}
	return eng, plat.AddVSSD(vssd.Config{Name: "kernel", Channels: chans})
}

// kernelFTLWrite times the FTL's page-write path (AllocatePage, mapping
// update, invalidation, and the GC that overwrites force) through
// Tenant.Prefill: 80% of the logical space written once, then as many
// random overwrites again.
func kernelFTLWrite(cfg flash.Config) (float64, error) {
	_, v := kernelPlatform(cfg)
	t := v.Tenant()
	pages := 2 * int(float64(t.LogicalPages())*0.8)
	t0 := time.Now()
	if err := t.Prefill(0.8, 1.0, sim.NewRNG(1)); err != nil {
		return 0, fmt.Errorf("ftl kernel: %w", err)
	}
	return float64(time.Since(t0)) / float64(pages), nil
}

type vssdLoop struct {
	v      *vssd.VSSD
	write  bool
	pages  int
	span   int // logical pages addressed
	rnd    xorshift
	issued int
	limit  int
	done   func(*vssd.Request, sim.Time)
}

func (l *vssdLoop) issue() {
	if l.issued >= l.limit {
		return
	}
	l.issued++
	r := l.v.AcquireRequest()
	r.Write = l.write
	r.LPN = int(l.rnd.next() % uint64(l.span))
	r.Pages = l.pages
	r.OnComplete = l.done
	l.v.Submit(r)
}

// kernelVSSD times one host request of pages pages through vSSD
// dispatch and completion, 16 requests outstanding, on a half-full
// tenant. Writes address a quarter of the space so GC stays live.
func kernelVSSD(cfg flash.Config, write bool, pages int) (float64, error) {
	const n = 20_000
	eng, v := kernelPlatform(cfg)
	if err := v.Tenant().Prefill(0.5, 0.3, sim.NewRNG(1)); err != nil {
		return 0, fmt.Errorf("vssd kernel: %w", err)
	}
	if pages < 1 {
		pages = 1
	}
	l := &vssdLoop{v: v, write: write, pages: pages, span: v.Tenant().LogicalPages() / 4, rnd: 1181783497276652981}
	l.done = func(*vssd.Request, sim.Time) { l.issue() }
	run := func(n int) {
		l.issued, l.limit = 0, n
		for i := 0; i < 16; i++ {
			l.issue()
		}
		eng.Run()
	}
	run(1000)
	t0 := time.Now()
	run(n)
	return float64(time.Since(t0)) / n, nil
}

// kernelTraceParse times trace.ParseCSV per record on the generic
// dialect, over a trace synthesized from the workload's first profile.
func kernelTraceParse(profile string) (float64, error) {
	const n = 20_000
	recs := workload.ByName(profile).SynthesizeTrace(n, 1<<20, sim.NewRNG(1))
	var csv bytes.Buffer
	for _, r := range recs {
		op := "R"
		if r.Write {
			op = "W"
		}
		fmt.Fprintf(&csv, "%d,%s,%d,%d\n", r.At, op, r.LPN, r.Pages)
	}
	f, err := trace.FormatByName("generic")
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	got, _, err := trace.ParseCSV(&csv, f, 16<<10)
	el := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("trace kernel: %w", err)
	}
	if len(got) != n {
		return 0, fmt.Errorf("trace kernel: parsed %d of %d records", len(got), n)
	}
	return float64(el) / n, nil
}

// rlNet builds the deployment-shaped network and a state, as
// harness.PretrainRun sizes them.
func rlNet() (*rl.PPO, *nn.ActorCritic, []float64) {
	rng := sim.NewRNG(1)
	dim := core.DefaultHistoryWindows * core.StatesPerWindow
	net := nn.NewActorCritic(dim, 50,
		[]int{len(core.HarvestLevels), len(core.HarvestLevels), len(core.PriorityLevels)}, rng)
	state := make([]float64, dim)
	for i := range state {
		state[i] = rng.Float64()
	}
	return rl.New(net, rl.DefaultConfig(), rng), net, state
}

// kernelRLTrain times PPO.Train per transition on a 10-window buffer of
// batch agents (what one in-run fine-tune sees).
func kernelRLTrain(agents int) float64 {
	const rounds = 30
	ppo, _, state := rlNet()
	steps := 10 * agents
	var total time.Duration
	for r := 0; r < rounds; r++ {
		var buf rl.Buffer
		for j := 0; j < steps; j++ {
			a, lp, v := ppo.Act(state)
			buf.Add(rl.Transition{State: state, Actions: a, LogProb: lp, Value: v, Reward: 0.5})
		}
		t0 := time.Now()
		ppo.Train(&buf, 0)
		total += time.Since(t0)
	}
	return float64(total) / float64(rounds*steps)
}

// kernelNNForwardBatch times one batched inference pass per state, at the
// batch size one decision window has (one row per agent).
func kernelNNForwardBatch(agents int) float64 {
	const n = 20_000
	_, net, state := rlNet()
	xs := make([]float64, 0, agents*len(state))
	for i := 0; i < agents; i++ {
		xs = append(xs, state...)
	}
	net.ForwardBatch(xs, agents) // size the cache
	t0 := time.Now()
	for i := 0; i < n; i++ {
		net.ForwardBatch(xs, agents)
	}
	return float64(time.Since(t0)) / float64(n*agents)
}

// controlPlatform is a two-tenant platform for the admission and gSB
// kernels, split like the pair workloads.
func controlPlatform(cfg flash.Config) *vssd.Platform {
	pc := vssd.DefaultPlatformConfig()
	pc.Flash = cfg
	p := vssd.NewPlatform(sim.NewEngine(), pc)
	half := cfg.Channels / 2
	lo, hi := make([]int, half), make([]int, cfg.Channels-half)
	for i := range lo {
		lo[i] = i
	}
	for i := range hi {
		hi[i] = half + i
	}
	p.AddVSSD(vssd.Config{Name: "home", Channels: lo})
	p.AddVSSD(vssd.Config{Name: "harv", Channels: hi})
	return p
}

// kernelAdmissionFlush times Controller.Flush per action over batches of
// 1000 metadata-only harvest actions (§4.7's measurement).
func kernelAdmissionFlush(cfg flash.Config) float64 {
	const rounds, batch = 30, 1000
	adm := admission.NewController(controlPlatform(cfg), nil)
	var total time.Duration
	for r := 0; r < rounds; r++ {
		for j := 0; j < batch; j++ {
			adm.Submit(vssd.Action{VSSD: j % 2, Kind: vssd.ActHarvest, BW: 0})
		}
		t0 := time.Now()
		adm.Flush()
		total += time.Since(t0)
	}
	return float64(total) / (rounds * batch)
}

// kernelGSB times one ghost-superblock create + reclaim pair.
func kernelGSB(cfg flash.Config) float64 {
	const n = 100_000
	p := controlPlatform(cfg)
	home := p.VSSD(0).Tenant()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		p.GSB().SetHarvestable(home, 1)
		p.GSB().SetHarvestable(home, 0)
	}
	return float64(time.Since(t0)) / n
}

// kernelHistAdd times metrics.Histogram.Add over latencies spread across
// the buckets a run touches (tens of microseconds to tens of milliseconds).
func kernelHistAdd() float64 {
	const n = 2_000_000
	var h metrics.Histogram
	rnd := xorshift(88172645463325252)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		h.Add(int64(10_000 + rnd.next()%20_000_000))
	}
	el := time.Since(t0)
	if h.Count() != n {
		panic("bench: histogram lost samples")
	}
	return float64(el) / n
}
