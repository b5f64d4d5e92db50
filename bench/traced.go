package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/admission"
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vssd"
	"repro/internal/workload"
)

// timedPolicy decorates core.Policy.Decide with a clock and a span: the
// one layer boundary inside the event loop the benchmark can reach from
// outside the program.
type timedPolicy struct {
	inner core.Policy
	tr    *tracer
	ns    int64
	calls int64
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Decide(now sim.Time, snaps []vssd.WindowSnapshot) []vssd.Action {
	sp := p.tr.begin("core.Policy.Decide")
	t0 := time.Now()
	acts := p.inner.Decide(now, snaps)
	p.ns += int64(time.Since(t0))
	p.calls++
	p.tr.endCount(sp, int64(len(acts)))
	return acts
}

// sentinel marks a boundary in an engine the benchmark steps itself.
func sentinel(arg sim.EventArg, _ sim.Time) { *arg.P.(*bool) = true }

// stepUntil is sim.Engine.RunUntil driven from outside with Step, so the
// events can be counted: it executes every event at or before t, leaves
// the clock at t, and returns how many ran. The engine exposes neither
// its next timestamp nor a counter, so a sentinel event scheduled at t is
// re-armed until it fires twice in a row, which only happens once no
// other event at t is left. Sentinels consume sequence numbers but never
// reorder model events ((at, seq) stays a strict total order), so the
// run is the one RunUntil(t) produces.
func stepUntil(eng *sim.Engine, t sim.Time) (events int64) {
	var fired bool
	arg := sim.EventArg{P: &fired}
	eng.AtEvent(t, sentinel, arg)
	last := false
	for eng.Step() {
		if !fired {
			events++
			last = false
			continue
		}
		if last {
			return events
		}
		fired, last = false, true
		eng.AtEvent(t, sentinel, arg)
	}
	panic("bench: engine drained before its sentinel fired")
}

// stack is one single-device experiment assembled from the exported
// pieces harness.RunOne is made of, with the benchmark's probes at the
// boundaries. run must reproduce harness.RunOne's Result exactly; the
// traced pass fails if it does not, so the probes cannot drift from the
// thing they claim to measure.
type stack struct {
	w    *workloadDef
	opt  harness.Options
	eng  *sim.Engine
	plat *vssd.Platform
	gens []*workload.Generator
	pol  *timedPolicy
	fio  *core.FleetIO // nil under a static policy
	adm  *admission.Controller
	run  *core.Runner

	buildS float64
	// Filled by execute.
	wallS                  float64
	events                 int64
	depths                 []int // engine heap depth sampled at each window
	utils                  []float64
	queueDelayNS, requests int64 // over measured windows
	completedWarm          int64 // requests completed before the boundary
	issuedWarm             int64
}

// buildStack mirrors harness.buildPlatform + attachPolicy for the two
// policies the workloads use, hardware-isolated channel split included.
func buildStack(tr *tracer, w *workloadDef, p *prepared, seed int64, scale float64) *stack {
	sp := tr.begin("build")
	defer tr.end(sp)
	t0 := time.Now()
	opt := w.options(seed, scale, p)
	s := &stack{w: w, opt: opt, eng: sim.NewEngine()}
	pc := vssd.DefaultPlatformConfig()
	pc.Flash.Channels = opt.Channels
	pc.Flash.ChipsPerChannel = 4
	pc.Flash.BlocksPerChip = opt.BlocksPerChip
	pc.Flash.PagesPerBlock = 64
	s.plat = vssd.NewPlatform(s.eng, pc)
	share := pc.Flash.Channels / len(w.mix.Workloads)
	rng := sim.NewRNG(opt.Seed)
	var recs []*trace.Recorder
	for i, name := range w.mix.Workloads {
		prof := workload.ByName(name)
		if opt.WorkloadShape != workload.ShapeSteady {
			shapeSeed := sim.NewRNG(opt.Seed).Stream(int64(i)).Int63()
			prof = workload.ApplyShape(prof, opt.WorkloadShape, shapeSeed, nil)
		}
		chans := make([]int, share)
		for c := range chans {
			chans[c] = i*share + c
		}
		v := s.plat.AddVSSD(vssd.Config{
			Name:             fmt.Sprintf("%s-%d", name, i),
			MaxInflightPages: prof.MaxInflightPages,
			Isolation:        vssd.HardwareIsolated,
			Channels:         chans,
			SLO:              p.slos[i],
		})
		if err := v.Tenant().Prefill(opt.PrefillFrac, 0.3, rng.Split(int64(100+i))); err != nil {
			panic(err)
		}
		gen := workload.NewGenerator(s.eng, v, prof, rng.Split(int64(i)))
		rec := trace.NewRecorder(cluster.WindowSize)
		gen.Record(rec)
		s.gens = append(s.gens, gen)
		recs = append(recs, rec)
	}
	var pol core.Policy
	switch w.policy {
	case harness.PolHardware:
		pol = baseline.HardwareIsolation()
	case harness.PolFleetIO:
		tm, alphas := harness.TypeModel()
		s.fio = core.NewFleetIO(s.plat, core.FleetIOConfig{
			Mode:           core.ModeFull,
			Train:          opt.TrainDuringRun,
			TrainEvery:     10,
			TypeEvery:      5,
			Seed:           opt.Seed,
			Pretrained:     opt.Pretrained,
			TypeModel:      tm,
			AlphaByCluster: alphas,
		})
		for i, rec := range recs {
			s.fio.SetRecorder(i, rec)
		}
		for i, name := range w.mix.Workloads {
			if c, ok := tm.WorkloadCluster[name]; ok {
				if a, ok := alphas[c]; ok {
					s.fio.SetAlpha(i, a)
				}
			}
		}
		pol = s.fio
		s.adm = admission.NewController(s.plat, nil)
	default:
		panic("bench: traced stack does not assemble policy " + w.policy.String())
	}
	s.pol = &timedPolicy{inner: pol, tr: tr}
	s.run = &core.Runner{Plat: s.plat, Adm: s.adm, Policy: s.pol, Window: opt.Window}
	s.buildS = time.Since(t0).Seconds()
	return s
}

// execute mirrors harness's run.execute: warm-up, reset at the boundary,
// measured interval; the engine is stepped here so events are counted.
func (s *stack) execute(tr *tracer) {
	sp := tr.begin("engine")
	fc := s.plat.FlashConfig()
	peak := fc.ChannelBandwidth() * float64(fc.Channels)
	measuring := false
	s.run.OnWindow = func(_ sim.Time, snaps []vssd.WindowSnapshot) {
		s.depths = append(s.depths, s.eng.Pending())
		if !measuring {
			return
		}
		var bytes int64
		var dur sim.Time
		for _, sn := range snaps {
			bytes += sn.Window.Bytes()
			if sn.Duration > dur {
				dur = sn.Duration
			}
			s.queueDelayNS += sn.Window.QueueDelaySum
			s.requests += sn.Window.LatencyCount
		}
		if dur > 0 {
			s.utils = append(s.utils, float64(bytes)/(peak*float64(dur)/1e9))
		}
	}
	t0 := time.Now()
	for _, g := range s.gens {
		g.Start()
	}
	s.run.Start()
	s.events = stepUntil(s.eng, s.opt.Warmup)
	for i, v := range s.plat.VSSDs() {
		s.completedWarm += v.Completed()
		s.issuedWarm += s.gens[i].Issued()
		v.ResetTotals()
		v.Rotate()
	}
	measuring = true
	s.events += stepUntil(s.eng, s.opt.Warmup+s.opt.Duration)
	for _, g := range s.gens {
		g.Stop()
	}
	s.wallS = time.Since(t0).Seconds()
	if len(s.depths) == 0 { // a run shorter than one window
		s.depths = append(s.depths, s.eng.Pending())
	}
	tr.endCount(sp, s.events)
}

// result mirrors harness's run.collect.
func (s *stack) result() harness.Result {
	res := harness.Result{Mix: s.w.mix.Label, Policy: s.w.policy.String()}
	fc := s.plat.FlashConfig()
	peak := fc.ChannelBandwidth() * float64(fc.Channels)
	var totalBytes int64
	for i, v := range s.plat.VSSDs() {
		prof := workload.ByName(s.w.mix.Workloads[i])
		h := v.TotalHist()
		t := harness.TenantResult{
			Workload:      prof.Name,
			Class:         prof.Class,
			BandwidthMBps: float64(v.TotalBytesMoved()) / (float64(s.opt.Duration) / 1e9) / 1e6,
			MeanMs:        h.Mean() / 1e6,
			P95Ms:         float64(h.P95()) / 1e6,
			P99Ms:         float64(h.P99()) / 1e6,
			P999Ms:        float64(h.P999()) / 1e6,
			SLOMs:         float64(v.SLO()) / 1e6,
			Completed:     v.Completed(),
		}
		if h.Count() > 0 && v.SLO() > 0 {
			t.VioRate = float64(h.CountAbove(v.SLO())) / float64(h.Count())
		}
		totalBytes += v.TotalBytesMoved()
		res.Tenants = append(res.Tenants, t)
	}
	res.AvgUtil = float64(totalBytes) / (peak * float64(s.opt.Duration) / 1e9)
	if len(s.utils) > 0 {
		sorted := append([]float64(nil), s.utils...)
		sort.Float64s(sorted)
		idx := int(0.95 * float64(len(sorted)))
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		res.P95Util = sorted[idx]
	}
	return res
}

// layerCounts reads the per-layer counters of finished device stacks (one
// for a single-device workload, every shard for the rack) from outside:
// flash, FTL, gSB and vSSD stats over the whole run. completed is the host
// I/Os the same stacks completed over the same interval.
func layerCounts(m metricSet, plats []*vssd.Platform, vsec float64, completed int64) {
	var ops, busBusy, chans, erases, gcRuns, harvests int64
	var hostProg, gcProg int64
	for _, p := range plats {
		fc := p.FlashConfig()
		for ch := 0; ch < fc.Channels; ch++ {
			cs := p.Device().Stats(ch)
			ops += cs.Reads + cs.Programs + cs.Erases
			busBusy += int64(cs.BusBusy)
		}
		chans += int64(fc.Channels)
		fst := p.FTL().Stats()
		erases += fst.Erases
		gcRuns += fst.GCRuns
		hostProg += fst.HostPrograms
		gcProg += fst.GCPrograms
		harvests += p.GSB().Stats().Harvested
	}
	m.sim("flash.ops_per_io", ratio(float64(ops), float64(completed)))
	m.sim("flash.bus_busy_pct", 100*ratio(float64(busBusy), float64(chans)*vsec*1e9))
	m.sim("ftl.write_amp", ratio(float64(hostProg+gcProg), float64(hostProg)))
	m.sim("ftl.gc_runs_per_vsec", float64(gcRuns)/vsec)
	m.sim("ftl.erases_per_vsec", float64(erases)/vsec)
	m.sim("gsb.harvests_per_vsec", float64(harvests)/vsec)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns a finished stack's probes into per-layer metrics.
func (s *stack) layerMetrics(m metricSet) {
	vsec := float64(s.opt.Warmup+s.opt.Duration) / 1e9
	var issued, completed, measured, bytes int64
	for i, v := range s.plat.VSSDs() {
		issued += s.gens[i].Issued()
		measured += v.Completed()
		bytes += v.TotalBytesMoved()
	}
	completed = s.completedWarm + measured
	layerCounts(m, []*vssd.Platform{s.plat}, vsec, completed)

	m.sim("sim.events_per_io", ratio(float64(s.events), float64(completed)))
	m.host("sim.ns_per_event", ratio(s.wallS*1e9, float64(s.events)))
	depths := append([]int(nil), s.depths...)
	sort.Ints(depths)
	m.sim("sim.heap_depth_p50", float64(depths[len(depths)/2]))
	m.sim("sim.heap_depth_max", float64(depths[len(depths)-1]))

	m.sim("vssd.pages_per_io", ratio(float64(bytes)/float64(s.plat.FlashConfig().PageSize), float64(measured)))
	m.sim("vssd.queue_delay_us_mean", ratio(float64(s.queueDelayNS)/1e3, float64(s.requests)))
	m.sim("vssd.unserved_pct", 100*ratio(float64(issued-completed), float64(issued)))
	m.sim("workload.issued_per_vsec", float64(issued-s.issuedWarm)/(float64(s.opt.Duration)/1e9))

	windows := s.run.Windows()
	m.host("core.decide_ns_per_window", ratio(float64(s.pol.ns), float64(s.pol.calls)))
	m.host("core.decide_pct", 100*ratio(float64(s.pol.ns)/1e9, s.wallS))
	var trains, actions int64
	if s.fio != nil {
		trains = int64(len(s.fio.TrainStats()))
		st := s.adm.Stats()
		actions = st.Admitted + st.Filtered + st.Immediate
	}
	m.sim("core.train_windows", float64(trains))
	m.sim("admission.actions_per_window", ratio(float64(actions), float64(windows)))
	m.host("harness.build_s", s.buildS)
}
