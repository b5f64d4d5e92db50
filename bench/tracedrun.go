package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/flash"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/vssd"
)

// cpuLayers are the buckets reported as <layer>.cpu_pct; every other
// bucket of the profile is summed into other.cpu_pct.
var cpuLayers = []string{"sim", "flash", "ftl", "vssd", "workload", "core", "rl", "nn", "fleet", "cluster", "metrics", "runtime"}

// runTraced is the traced pass: its own process, never mixed with timed
// runs. It reports every per-layer metric, three ways: (1) the workload's
// stack assembled from exported pieces with probes at the boundaries
// (single-device workloads), or counters read off the finished shards
// (the rack); (2) layer kernels; (3) a CPU profile of untimed
// repetitions. Metrics that do not apply to the workload read 0.
func runTraced(spec *benchSpec, w *workloadDef, seed int64, seconds, scale float64, limit time.Duration) (*report, *tracer) {
	tr := &tracer{}
	r := &report{Workload: w.name, Seed: seed, Traced: true, Seconds: seconds, Params: w.params(), Metrics: metricSet{}}
	m := r.Metrics
	for _, ms := range spec.PerLayer {
		m[ms.Name] = metricOut{} // reads 0, from no clock, unless measured below
	}
	ss := subSeed(seed, 0)
	r.SubSeeds = []int64{ss}

	root := tr.begin("traced:" + w.name)
	defer tr.end(root)
	sp := tr.begin("setup")
	p := w.prepare(tr, ss, scale)
	m.host("harness.pretrain_s", p.pretrainS)
	m.host("harness.calibrate_s", p.calibrateS)
	_, err := guarded(limit, func() (repOut, error) { return w.rep(p, ss, scale*warmupScale) })
	tr.end(sp)
	if err != nil {
		r.fail("warm-up repetition: %v", err)
		abandon(r, err)
		return r, tr
	}

	// timed runs one untraced repetition under a span and records it.
	timed := func(name string, fn func() (repOut, error)) (repOut, float64, bool) {
		sp := tr.begin(name)
		out, wallS, _, err := timedRep(limit, fn)
		tr.endCount(sp, out.completed)
		r.RepWallS = append(r.RepWallS, wallS)
		r.Attempted += max(out.completed, 1)
		if err != nil {
			r.Failed += max(out.completed, 1)
			r.fail("%s: %v", name, err)
			abandon(r, err)
			return out, wallS, false
		}
		return out, wallS, true
	}

	var geometry flash.Config
	var depth, agents int
	var ok bool
	if w.devices > 0 {
		geometry, depth, ok = tracedRack(r, tr, w, ss, scale, timed)
	} else {
		geometry, depth, ok = tracedDevice(r, tr, w, p, ss, scale, timed)
		agents = len(w.mix.Workloads)
	}
	if !ok {
		return r, tr
	}

	sp = tr.begin("kernels")
	m.host("sim.kernel_ns_per_event", kernelSim(depth))
	m.host("flash.kernel_read_ns_per_op", kernelFlash(geometry, flash.OpRead))
	m.host("flash.kernel_program_ns_per_op", kernelFlash(geometry, flash.OpProgram))
	pages := int(m["vssd.pages_per_io"].Value + 0.5)
	kernel := func(name string, v float64, err error) {
		if err != nil {
			r.fail("%s: %v", name, err)
			return
		}
		m.host(name, v)
	}
	v, err := kernelFTLWrite(geometry)
	kernel("ftl.kernel_write_ns_per_page", v, err)
	v, err = kernelVSSD(geometry, false, pages)
	kernel("vssd.kernel_read_ns_per_io", v, err)
	v, err = kernelVSSD(geometry, true, pages)
	kernel("vssd.kernel_write_ns_per_io", v, err)
	m.host("metrics.kernel_hist_add_ns", kernelHistAdd())
	m.host("gsb.kernel_create_reclaim_ns", kernelGSB(geometry))
	m.host("admission.kernel_flush_ns_per_action", kernelAdmissionFlush(geometry))
	if agents > 0 {
		v, err = kernelTraceParse(w.mix.Workloads[0])
		kernel("trace.kernel_parse_ns_per_record", v, err)
		if w.pretrained {
			m.host("rl.kernel_train_ns_per_transition", kernelRLTrain(agents))
			m.host("nn.kernel_forward_batch_ns_per_state", kernelNNForwardBatch(agents))
		}
	}
	tr.end(sp)

	// The profile covers whole repetitions (stack build and prefill
	// included), repeated until a fifth of the run length has passed so
	// that shares rest on hundreds of samples.
	sp = tr.begin("cpu-profile")
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	shares, samples, err := cpuShares(func() error {
		for t0 := time.Now(); ; {
			if _, err := guarded(limit, func() (repOut, error) { return w.rep(p, ss, scale) }); err != nil {
				return err
			}
			if time.Since(t0).Seconds() >= seconds/5 {
				return nil
			}
		}
	})
	runtime.ReadMemStats(&gc1)
	tr.endCount(sp, samples)
	if err != nil {
		r.fail("profiled repetition: %v", err)
		abandon(r, err)
		return r, tr
	}
	other := 100.0
	for _, layer := range cpuLayers {
		m.host(layer+".cpu_pct", shares[layer])
		other -= shares[layer]
	}
	m.host("other.cpu_pct", max(other, 0))
	m.host("runtime.gc_cycles", float64(gc1.NumGC-gc0.NumGC))
	r.Samples = map[string]int64{"cpu_pct": samples}
	r.Reps = len(r.RepWallS)
	return r, tr
}

type timedFn func(name string, fn func() (repOut, error)) (repOut, float64, bool)

// tracedDevice is the single-device traced pass. It returns the device
// geometry and the median event-heap depth for the kernels.
func tracedDevice(r *report, tr *tracer, w *workloadDef, p *prepared, seed int64, scale float64, timed timedFn) (flash.Config, int, bool) {
	m := r.Metrics
	plain, plainS, ok := timed("harness.RunOne", func() (repOut, error) { return w.rep(p, seed, scale) })
	if !ok {
		return flash.Config{}, 0, false
	}

	var st *stack
	traced, tracedS, ok := timed("traced-stack", func() (repOut, error) {
		st = buildStack(tr, w, p, seed, scale)
		st.execute(tr)
		return resultOut(st.result(), st.opt)
	})
	if !ok {
		return flash.Config{}, 0, false
	}
	if traced.fingerprint != plain.fingerprint {
		r.fail("traced stack diverged from harness.RunOne:\n%s\nvs\n%s", traced.fingerprint, plain.fingerprint)
	}
	st.layerMetrics(m)
	m.sim("sim_slo_viol_pct", plain.sim.sloViolPct)

	observed, obsS, ok := timed("harness.RunOne+obs", func() (repOut, error) {
		opt := w.options(seed, scale, p)
		opt.Obs = obs.NewObserver()
		return resultOut(harness.RunOne(w.mix, w.policy, p.slos, opt), opt)
	})
	if !ok {
		return flash.Config{}, 0, false
	}
	if observed.fingerprint != plain.fingerprint {
		r.fail("observing the run changed its simulated outputs")
	}
	// The two overheads compare single repetitions, so the untraced one is
	// measured on both sides of them and averaged.
	_, plain2S, ok := timed("harness.RunOne", func() (repOut, error) { return w.rep(p, seed, scale) })
	if !ok {
		return flash.Config{}, 0, false
	}
	plainS = (plainS + plain2S) / 2
	m.host("trace_overhead_pct", 100*(tracedS/plainS-1))
	m.host("obs.enabled_overhead_pct", 100*(obsS/plainS-1))

	// Reference pass: the paper's claims are relative to Hardware
	// Isolation at the same seed and length (1.30x mean utilization at
	// <=1.2x P99). The model is unvalidated against hardware; the
	// reference is the paper's relative result.
	if w.policy != harness.PolHardware {
		hw, _, ok := timed("harness.RunOne(hardware)", func() (repOut, error) {
			opt := w.options(seed, scale, p)
			return resultOut(harness.RunOne(w.mix, harness.PolHardware, p.slos, opt), opt)
		})
		if !ok {
			return flash.Config{}, 0, false
		}
		m.sim("sim_util_gain_vs_hw", plain.sim.utilPct/hw.sim.utilPct)
		m.sim("sim_ls_p99_vs_hw", plain.sim.lsP99Ms/hw.sim.lsP99Ms)
	}
	return st.plat.FlashConfig(), int(m["sim.heap_depth_p50"].Value), true
}

// tracedRack is the rack's traced pass: workers 2 (the workload), workers
// 1 (the byte-identity oracle and the scaling base) and workers 2 with an
// obs.Registry (barrier series), three repetitions each, interleaved.
func tracedRack(r *report, tr *tracer, w *workloadDef, seed int64, scale float64, timed timedFn) (flash.Config, int, bool) {
	m := r.Metrics
	const rounds = 3
	var w1, w2, wobs, news []float64
	var reg *obs.Registry
	var last *fleet.Fleet
	var base repOut
	run := func(name string, workers int, withObs bool, walls *[]float64) bool {
		out, wallS, ok := timed(name, func() (repOut, error) {
			cfg := w.fleetConfig(seed, scale)
			cfg.Workers = workers
			if withObs {
				reg = obs.NewRegistry()
				cfg.Obs = reg
			}
			t0 := time.Now()
			last = fleet.New(cfg)
			news = append(news, time.Since(t0).Seconds())
			return fleetOut(last, last.Run())
		})
		if !ok {
			return false
		}
		*walls = append(*walls, wallS)
		if base.fingerprint == "" {
			base = out
		} else if out.fingerprint != base.fingerprint {
			r.fail("%s: rendered stats differ from the first run's:\n%s\nvs\n%s", name, out.fingerprint, base.fingerprint)
		}
		return true
	}
	for i := 0; i < rounds; i++ {
		if !run("fleet.Run(workers=2)", 2, false, &w2) ||
			!run("fleet.Run(workers=1)", 1, false, &w1) ||
			!run("fleet.Run(workers=2,obs)", 2, true, &wobs) {
			return flash.Config{}, 0, false
		}
	}
	t1, t2 := median(w1), median(w2)
	m.host("fleet.scale_eff_w2", t1/(2*t2))
	m.host("fleet.serial_pct", 100*(2*t2/t1-1))
	m.host("fleet.new_s", median(news))
	m.host("obs.enabled_overhead_pct", 100*(median(wobs)/t2-1))
	// The last run carried the registry: its barrier series are read here.
	wait := reg.Counter("fleetio_fleet_barrier_wait_ns", "").Value()
	m.host("fleet.barrier_wait_pct", 100*wait/1e9/wobs[len(wobs)-1])
	m.host("fleet.straggler_ns_last_epoch", reg.Gauge("fleetio_fleet_barrier_straggler_ns", "").Value())
	m.sim("fleet.migrations", float64(base.migrations))
	m.sim("fail_pct", 100*ratio(float64(base.rejected), float64(base.arrived)))

	var plats []*vssd.Platform
	var depths []int
	var pages int64
	for _, sh := range last.Shards() {
		plats = append(plats, sh.Platform())
		depths = append(depths, sh.Engine().Pending())
		for _, v := range sh.Platform().VSSDs() {
			pages += v.TotalBytesMoved() / int64(sh.Platform().FlashConfig().PageSize)
		}
	}
	layerCounts(m, plats, base.vsec, base.completed)
	m.sim("vssd.pages_per_io", ratio(float64(pages), float64(base.completed)))
	// The fleet steps its own engines, so heap depth is what each shard
	// holds at the end of the run, not a per-window sample.
	sort.Ints(depths)
	m.sim("sim.heap_depth_p50", float64(depths[len(depths)/2]))
	m.sim("sim.heap_depth_max", float64(depths[len(depths)-1]))
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(os.Stderr, "bench: one CPU: fleet.scale_eff_w2 measures time-slicing, not scaling")
	}
	return last.Config().Flash, depths[len(depths)/2], true
}
