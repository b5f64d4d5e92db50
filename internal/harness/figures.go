package harness

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/vssd"
	"repro/internal/workload"
)

// figure2 prints the §2.2 utilization study: average and P95 SSD bandwidth
// utilization under hardware vs software isolation for the six pairs.
func figure2(w io.Writer, g grid, cs cells, seed int64) {
	fmt.Fprintln(w, "Figure 2: SSD bandwidth utilization, hardware vs software isolation")
	fmt.Fprintf(w, "%-22s %14s %14s %14s %14s\n", "pair", "HW avg%", "HW p95%", "SW avg%", "SW p95%")
	var maxRatio, sum float64
	n := 0
	for _, mix := range g.mixes {
		hw, sw := cs.at(mix, PolHardware, "", seed), cs.at(mix, PolSoftware, "", seed)
		fmt.Fprintf(w, "%-22s %14.1f %14.1f %14.1f %14.1f\n", mix.Label,
			hw.AvgUtil*100, hw.P95Util*100, sw.AvgUtil*100, sw.P95Util*100)
		if hw.AvgUtil > 0 {
			r := sw.AvgUtil / hw.AvgUtil
			maxRatio, sum, n = max(maxRatio, r), sum+r, n+1
		}
	}
	fmt.Fprintf(w, "software/hardware avg-util ratio: max %.2fx, mean %.2fx (paper: up to 1.52x, 1.39x avg)\n\n",
		maxRatio, sum/float64(max(n, 1)))
}

// figure3 prints the §2.2 per-tenant study: normalized BI bandwidth (a)
// and normalized LS P99 (b) under software isolation relative to hardware.
func figure3(w io.Writer, g grid, cs cells, seed int64) {
	normalized := func(title, unit, cell, paper string, metric func(Result) float64) {
		fmt.Fprintf(w, "Figure %s (normalized to hardware isolation)\n", title)
		fmt.Fprintf(w, "%-22s %14s %14s %10s\n", "pair", "HW "+unit, "SW "+unit, "SW/HW")
		for _, mix := range g.mixes {
			hw, sw := metric(cs.at(mix, PolHardware, "", seed).Result), metric(cs.at(mix, PolSoftware, "", seed).Result)
			fmt.Fprintf(w, "%-22s "+cell+" "+cell+" %9.2fx\n", mix.Label, hw, sw, sw/hw)
		}
		fmt.Fprintf(w, "(paper: %s)\n\n", paper)
	}
	normalized("3a: bandwidth of the bandwidth-intensive workload", "MB/s", "%14.1f",
		"up to 1.84x, 1.64x avg", Result.BandwidthTenant)
	normalized("3b: P99 latency of the latency-sensitive workload", "P99 ms", "%14.2f",
		"up to 2.02x higher tail latency", Result.LatencyTenantP99)
}

// clustering is Figure 6's held-out accuracy: trained on the train split.
var clustering = sync.OnceValue(func() float64 {
	train, test := typeDataset().Split(0.7)
	return cluster.Train(train, 3, typeSeed).Accuracy(test)
})

// figure6 trains the workload-type clusters, prints the PCA scatter data,
// cluster membership, and the train/test accuracy (paper: 98.4%).
func figure6(w io.Writer) {
	ds, acc := typeDataset(), clustering()
	m, _ := TypeModel()
	fmt.Fprintln(w, "Figure 6: workload clustering (k-means on 4 trace features, PCA projection)")
	for c, wls := range m.ClusterWorkloads {
		fmt.Fprintf(w, "  cluster %d: %v\n", c, wls)
	}
	// PCA coordinates of the full dataset for plotting.
	raw := make([][]float64, len(ds.Samples))
	for i, s := range ds.Samples {
		raw[i] = s.Features
	}
	scaled, _, _ := cluster.Standardize(raw)
	proj, _ := cluster.PCA2(scaled, sim.NewRNG(5))
	centroid := map[string][2]float64{}
	count := map[string]int{}
	for i, p := range proj {
		wl := ds.Samples[i].Workload
		c := centroid[wl]
		c[0] += p[0]
		c[1] += p[1]
		centroid[wl] = c
		count[wl]++
	}
	fmt.Fprintf(w, "%-16s %10s %10s\n", "workload", "factor1", "factor2")
	for _, wl := range workload.Names() {
		c := centroid[wl]
		n := float64(count[wl])
		fmt.Fprintf(w, "%-16s %10.2f %10.2f\n", wl, c[0]/n, c[1]/n)
	}
	fmt.Fprintf(w, "test clustering accuracy: %.1f%% (paper: 98.4%%)\n\n", acc*100)
}

// figures10to13 prints the main evaluation: the utilization/latency
// tradeoff (Fig 10), per-pair utilization (Fig 11), normalized P99
// (Fig 12), and normalized BI bandwidth (Fig 13) for all five policies.
func figures10to13(w io.Writer, g grid, cs cells, seed int64) {
	fmt.Fprintln(w, "Figure 10: utilization improvement (x, vs Hardware Isolation) vs normalized P99 (y)")
	pairRows(w, g, cs, seed, func(p PolicyKind) string { return fmt.Sprintf(" %26s", p) }, func(r, hw Result) string {
		return fmt.Sprintf("   (%5.2fx util, %5.2fx P99)", r.AvgUtil/hw.AvgUtil, r.LatencyTenantP99()/hw.LatencyTenantP99())
	})
	fmt.Fprintln(w, "(paper: FleetIO ≥1.30x util over HW and ≤1.2x of HW P99; SW/Adaptive 1.76-2.03x P99)")
	fmt.Fprintln(w)

	for _, f := range []struct {
		title, cellFmt string
		metric         func(Result) float64
	}{
		{"Figure 11: SSD bandwidth utilization (%)", " %14.1f", func(r Result) float64 { return r.AvgUtil * 100 }},
		{"Figure 12: P99 latency of the latency-sensitive workload (ms)", " %14.2f", Result.LatencyTenantP99},
		{"Figure 13: bandwidth of the bandwidth-intensive workload (MB/s)", " %14.1f", Result.BandwidthTenant},
	} {
		fmt.Fprintln(w, f.title)
		pairRows(w, g, cs, seed, shortColumn, func(r, _ Result) string { return fmt.Sprintf(f.cellFmt, f.metric(r)) })
		fmt.Fprintln(w)
	}
}

// pairRows prints one row per pair of g and one column per policy: a
// header of each policy's column, then the text of each cell beside the
// pair's Hardware Isolation cell.
func pairRows(w io.Writer, g grid, cs cells, seed int64, column func(PolicyKind) string, text func(r, hw Result) string) {
	fmt.Fprintf(w, "%-22s", "pair")
	for _, p := range g.kinds {
		fmt.Fprint(w, column(p))
	}
	fmt.Fprintln(w)
	for _, mix := range g.mixes {
		hw := cs.at(mix, PolHardware, "", seed).Result
		fmt.Fprintf(w, "%-22s", mix.Label)
		for _, p := range g.kinds {
			fmt.Fprint(w, text(cs.at(mix, p, "", seed).Result, hw))
		}
		fmt.Fprintln(w)
	}
}

// shortColumn heads p's 14-character column with its short name.
func shortColumn(p PolicyKind) string {
	short := map[PolicyKind]string{PolHardware: "HardwareIso", PolSoftware: "SoftwareIso",
		PolFleetIOUnifiedGlobal: "FIO-UnifGlob", PolFleetIOCustomizedLocal: "FIO-CustLoc"}
	if s, ok := short[p]; ok {
		return fmt.Sprintf(" %14s", s)
	}
	return fmt.Sprintf(" %14s", p)
}

// figure14 prints the scalability study over the Table 5 mixes.
func figure14(w io.Writer, g grid, cs cells, seed int64) {
	fmt.Fprintln(w, "Figure 14: scalability over Table 5 mixes (2/4/8 vSSDs)")
	fmt.Fprintf(w, "%-8s %-7s", "mix", "vSSDs")
	for _, p := range g.kinds {
		fmt.Fprint(w, shortColumn(p))
	}
	fmt.Fprintln(w, "   (util%% | LS P99 norm | BI BW norm)")
	for _, mix := range g.mixes {
		hw := cs.at(mix, PolHardware, "", seed)
		fmt.Fprintf(w, "%-8s %-7d", mix.Label, len(mix.Workloads))
		for _, p := range g.kinds {
			r := cs.at(mix, p, "", seed)
			fmt.Fprintf(w, "  %5.1f|%4.2f|%4.2f",
				r.AvgUtil*100,
				r.LatencyTenantP99()/hw.LatencyTenantP99(),
				r.BandwidthTenant()/hw.BandwidthTenant())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(paper: FleetIO 1.33x/1.18x util over HW at 4/8 vSSDs, ≤1.1x HW P99, ≥1.25x BI BW)")
	fmt.Fprintln(w)
}

// figure15 prints the reward-function ablation: FleetIO vs Unified-Global
// (one α for all) vs Customized-Local (β=1).
func figure15(w io.Writer, g grid, cs cells, seed int64) {
	fmt.Fprintln(w, "Figure 15: reward ablation — utilization (%) and LS P99 (ms)")
	pairRows(w, g, cs, seed, shortColumn, func(r, _ Result) string {
		return fmt.Sprintf("  %5.1f%%/%5.2f", r.AvgUtil*100, r.LatencyTenantP99())
	})
	fmt.Fprintln(w, "(paper: Customized-Local ≈ Hardware Isolation — no harvest incentive without β;")
	fmt.Fprintln(w, " Unified-Global inconsistent across pairs; FleetIO best of both)")
	fmt.Fprintln(w)
}

// figure16 prints g, mix3 on the mixed topology: two VDI-Web on 4-channel
// hardware-isolated vSSDs, two TeraSort sharing an 8-channel
// software-isolated pool, under Mixed Isolation (the topology as built),
// Software Isolation and FleetIO.
func figure16(w io.Writer, g grid, cs cells, seed int64) {
	fmt.Fprintln(w, "Figure 16: mixed hardware- and software-isolated vSSDs (mix3)")
	for _, k := range g.kinds {
		res, name := cs.at(g.mixes[0], k, g.levels[0].Name, seed), k.String()
		if k == PolHardware {
			name = "Mixed Isolation"
		}
		fmt.Fprintf(w, "%-18s util=%5.1f%%  LS P99=%6.2fms  BI BW=%7.1f MB/s\n",
			name, res.AvgUtil*100, res.LatencyTenantP99(), res.BandwidthTenant())
	}
	fmt.Fprintln(w, "(paper: FleetIO 1.27x util over Mixed Isolation, ≥94% of Software Isolation's util,")
	fmt.Fprintln(w, " 1.42x BI bandwidth, tail latency within 1.19x of Mixed Isolation)")
	fmt.Fprintln(w)
}

// measureMixedIsolation is Figure 16's run: the mixed topology under
// kind, where PolHardware leaves it as built ("Mixed Isolation") and
// PolSoftware opens every channel to every tenant once the mixed layout
// has placed their data.
func measureMixedIsolation(mix MixSpec, kind PolicyKind, slos []sim.Time, opt Options) *Run {
	r := buildPlatform(mix, kind, mixedIsolation, slos, opt)
	switch kind {
	case PolFleetIO:
		r.attachFleetIO(figure16FleetIO(opt))
	case PolSoftware:
		plat := r.Platform()
		for _, v := range plat.VSSDs() {
			v.Tenant().SetChannels(ChannelRange(0, plat.FlashConfig().Channels))
		}
		r.AttachPolicy(kind)
	default:
		r.AttachPolicy(kind)
	}
	return r.measure()
}

// transferCase is one of Figure 17's swaps: the model keeps serving keep
// while its neighbour switches from `from` to `to`.
type transferCase struct {
	label, keep, from, to string
}

func transferCases() []transferCase {
	return []transferCase{
		{"T + (V->Y)", "TeraSort", "VDI-Web", "YCSB"},
		{"M + (V->Y)", "MLPrep", "VDI-Web", "YCSB"},
		{"P + (V->Y)", "PageRank", "VDI-Web", "YCSB"},
		{"V + (T->M)", "VDI-Web", "TeraSort", "MLPrep"},
		{"V + (M->P)", "VDI-Web", "MLPrep", "PageRank"},
		{"Y + (P->T)", "YCSB", "PageRank", "TeraSort"},
	}
}

// final is the mix c ends on.
func (c transferCase) final() MixSpec { return Pair(c.keep, c.to) }

// kept is what a Figure 17 cell is judged on: the kept tenant's (tenant
// 0's) BI bandwidth (MB/s) or LS P99 (ms), as its class is.
func kept(c cell) float64 {
	if c.Tenants[0].Class == workload.Bandwidth {
		return c.BandwidthTenant()
	}
	return c.LatencyTenantP99()
}

// figure17 prints g, Figure 17's robustness to collocated-workload changes:
// the model keeps serving tenant A while its neighbour switches from B to C
// halfway (g's second level), compared to a model tuned on A+C from the
// start (its first).
func figure17(w io.Writer, g grid, cs cells, seed int64) {
	fmt.Fprintln(w, "Figure 17: robustness to collocated workload changes")
	fmt.Fprintf(w, "%-12s %14s %14s %10s (metric: %s)\n", "case", "pretrained", "transfer", "ratio", "BI MB/s or LS P99 ms")
	for _, c := range transferCases() {
		a, b := kept(cs.at(c.final(), g.kinds[0], g.levels[0].Name, seed)), kept(cs.at(c.final(), g.kinds[0], g.levels[1].Name, seed))
		fmt.Fprintf(w, "%-12s %14.2f %14.2f %9.2fx\n", c.label, a, b, b/a)
	}
	fmt.Fprintln(w, "(paper: transfer within 5% of pretrained across all combinations)")
	fmt.Fprintln(w)
}

// runTransfer runs mix, one of Figure 17's final mixes, as its transfer
// case: kind on the case's initial mix through warmup, then the collocated
// workload switched to mix's, four windows for the agents to adjust, and
// mix measured against slos, its SLOs. Like Measure, it returns the
// finished run.
func runTransfer(mix MixSpec, kind PolicyKind, slos []sim.Time, opt Options) *Run {
	cases := transferCases()
	c := cases[slices.IndexFunc(cases, func(c transferCase) bool { return c.final().Label == mix.Label })]
	r := buildPlatform(Pair(c.keep, c.from), kind, nil, slos, opt)
	r.AttachPolicy(kind)
	swap := func() {
		// Same recorder, so re-typing after the swap sees the new traffic.
		r.dev.Drive(1, r.profile(1, c.to), sim.NewRNG(opt.Seed+999), r.recs[1])
		r.mix = mix
	}
	settled := opt.Warmup + 4*opt.Window
	r.execute(settled+opt.Duration, boundary{opt.Warmup, swap}, boundary{settled, r.BeginMeasuring})
	r.Collect()
	return r
}

// overheadReport captures §4.7's overhead table.
type overheadReport struct {
	InferencePerWindow   time.Duration
	FineTunePer10Windows time.Duration
	GSBCreate            time.Duration
	AdmissionPer1000     time.Duration
	ModelBytes           int
	ModelParams          int
}

// overheads measures the §4.7 costs on this machine.
func overheads(w io.Writer) overheadReport {
	rng := sim.NewRNG(1)
	net := nn.NewActorCritic(core.DefaultHistoryWindows*core.StatesPerWindow, 50,
		[]int{len(core.HarvestLevels), len(core.HarvestLevels), len(core.PriorityLevels)}, rng)
	state := make([]float64, core.DefaultHistoryWindows*core.StatesPerWindow)
	for i := range state {
		state[i] = rng.Float64()
	}
	ppo := rl.New(net, rl.DefaultConfig(), rng)

	// Inference.
	const infIters = 2000
	start := time.Now()
	for i := 0; i < infIters; i++ {
		ppo.ActGreedy(state)
	}
	inf := time.Since(start) / infIters

	// Fine-tune: one PPO update over 10 windows' worth of transitions.
	var buf rl.Buffer
	mkBuf := func() {
		for i := 0; i < 32; i++ {
			a, lp, v := ppo.Act(state)
			buf.Add(rl.Transition{State: state, Actions: a, LogProb: lp, Value: v, Reward: rng.Float64()})
		}
	}
	mkBuf()
	start = time.Now()
	ppo.Train(&buf, 0)
	ft := time.Since(start)

	// gSB creation (metadata only), on a 16-channel, 4-chip, 128-block,
	// 64-page device.
	plat := NewRun(Options{BlocksPerChip: 128}).Platform()
	plat.AddVSSD(vssd.Config{Name: "home", Channels: ChannelRange(0, 8)})
	plat.AddVSSD(vssd.Config{Name: "harv", Channels: ChannelRange(8, 16)})
	const gsbIters = 500
	start = time.Now()
	for i := 0; i < gsbIters; i++ {
		plat.GSB().SetHarvestable(plat.VSSD(0).Tenant(), 1)
		plat.GSB().SetHarvestable(plat.VSSD(0).Tenant(), 0)
	}
	gsbDur := time.Since(start) / (2 * gsbIters)

	// Admission control batch of 1000 actions.
	adm := admission.NewController(plat, nil)
	bw := plat.FlashConfig().ChannelBandwidth()
	start = time.Now()
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			adm.Submit(vssd.Action{VSSD: 0, Kind: vssd.ActMakeHarvestable, BW: bw})
		} else {
			adm.Submit(vssd.Action{VSSD: 1, Kind: vssd.ActHarvest, BW: bw})
		}
	}
	adm.Flush()
	admDur := time.Since(start)

	enc, _ := net.Encode()
	rep := overheadReport{
		InferencePerWindow:   inf,
		FineTunePer10Windows: ft,
		GSBCreate:            gsbDur,
		AdmissionPer1000:     admDur,
		ModelBytes:           len(enc),
		ModelParams:          net.NumParams(),
	}
	if w != nil {
		fmt.Fprintln(w, "Section 4.7: overhead sources")
		fmt.Fprintf(w, "  inference per window:        %v (paper: 1.1 ms)\n", rep.InferencePerWindow)
		fmt.Fprintf(w, "  fine-tune per 10 windows:    %v (paper: 51.2 ms)\n", rep.FineTunePer10Windows)
		fmt.Fprintf(w, "  gSB create/reclaim:          %v (paper: <1 us)\n", rep.GSBCreate)
		fmt.Fprintf(w, "  admission, 1000 actions:     %v (paper: 0.8 ms)\n", rep.AdmissionPer1000)
		fmt.Fprintf(w, "  model size:                  %d bytes, %d params (paper: 2.2 MB, ~9K params)\n\n",
			rep.ModelBytes, rep.ModelParams)
	}
	return rep
}
