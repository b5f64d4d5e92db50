package harness

import (
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/sim"
)

// claim is one thing the reproduction must show: a quantity of a paper
// artefact, the relation its value must satisfy, and the runs it is judged
// over. It reads Result and fleet.Stats values, never rendered text.
type claim struct {
	figure   string // the paper artefact, or `-fig NAME` for a scenario's rows
	quantity string // what the row reads, in words
	paper    string // the paper's value as the paper states it; "—" where it states none
	rel      relation
	// every: each seed must satisfy rel; otherwise the median over seeds
	// must.
	every bool
	at    budget
	seeds []int64
	// reads is the grid value reads its cells from, run over seeds as one
	// flat job list; zero for a row that reads a rack or Figure 6, 16 or 17.
	reads grid
	// value is the quantity at opt's seed, from the cells of reads.
	value func(cs cells, opt Options) float64
	// diverges names the ROADMAP item that explains why the row does not
	// hold at its budget. A failing row so marked does not fail the check;
	// a holding one does, until the mark goes.
	diverges string
}

// relation is the interval a value must lie in: an ordering against a bound
// (> 1), a band ([0.95, 1.05]) or a sign (> 0).
type relation struct {
	lo, hi         float64
	loOpen, hiOpen bool
}

func above(x float64) relation   { return relation{x, math.Inf(1), true, false} }
func atLeast(x float64) relation { return relation{x, math.Inf(1), false, false} }
func below(x float64) relation   { return relation{math.Inf(-1), x, false, true} }
func atMost(x float64) relation  { return relation{math.Inf(-1), x, false, false} }
func exactly(x float64) relation { return relation{x, x, false, false} }

// roughly is the paper's factor x over a baseline to within a factor of
// two in its effect: an excess over 1 between half and twice x's.
func roughly(x float64) relation { return relation{1 + (x-1)/2, 1 + 2*(x-1), false, false} }

func (r relation) holds(v float64) bool {
	return (v > r.lo || !r.loOpen && v == r.lo) && (v < r.hi || !r.hiOpen && v == r.hi)
}

func (r relation) String() string {
	op := func(open bool, strict, eq string) string {
		if open {
			return strict
		}
		return eq
	}
	switch {
	case r.lo == r.hi:
		return fmt.Sprintf("= %.4g", r.lo)
	case math.IsInf(r.hi, 1):
		return fmt.Sprintf("%s %.4g", op(r.loOpen, ">", "≥"), r.lo)
	case math.IsInf(r.lo, -1):
		return fmt.Sprintf("%s %.4g", op(r.hiOpen, "<", "≤"), r.hi)
	}
	return fmt.Sprintf("%s%.4g, %.4g%s", op(r.loOpen, "(", "["), r.lo, r.hi, op(r.hiOpen, ")", "]"))
}

// budget is the options a claim holds at: DefaultOptions with edit applied,
// with FleetIO agents seeded from the pretrained model when pretrained is
// set.
type budget struct {
	name       string
	pretrained bool
	edit       func(*Options)
}

func (b budget) options(workers int) Options {
	o := DefaultOptions()
	b.edit(&o)
	o.Workers = workers
	if b.pretrained {
		o = WithPretrained(o)
	}
	return o
}

// paperBudget is EXPERIMENTS.md's: `fleetbench -seconds 6 -warmup 4`.
var paperBudget = budget{name: "paper", pretrained: true, edit: func(o *Options) {
	o.Warmup, o.Duration = 4*sim.Second, 6*sim.Second
}}

// The ROADMAP items a paper row that does not hold points to: the repo's
// own explanations of where it departs from the paper, and the
// seed-fragile tails.
const (
	explained = "ROADMAP item 10"
	seedTails = "ROADMAP item 21"
)

// paperSeeds are the seeds a paper row is judged over.
var paperSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

// ratios is metric under kind over metric under base at one seed, one value
// per mix of g.
func ratios(g grid, kind, base PolicyKind, metric func(Result) float64) func(cells, Options) []float64 {
	return func(cs cells, opt Options) []float64 {
		out := make([]float64, len(g.mixes))
		for i, mix := range g.mixes {
			out[i] = metric(cs.at(mix, kind, "", opt.Seed).Result) / metric(cs.at(mix, base, "", opt.Seed).Result)
		}
		return out
	}
}

// each is metric of every cell of g at one seed, in mix, policy, level order.
func each(g grid, metric func(cell) float64) func(cells, Options) []float64 {
	return func(cs cells, opt Options) []float64 {
		var out []float64
		for _, mix := range g.mixes {
			for _, k := range g.kinds {
				for _, l := range g.rungs() {
					out = append(out, metric(cs.at(mix, k, l.Name, opt.Seed)))
				}
			}
		}
		return out
	}
}

func reduce(f func([]float64) float64, xs func(cells, Options) []float64) func(cells, Options) float64 {
	return func(cs cells, opt Options) float64 { return f(xs(cs, opt)) }
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

func spread(xs []float64) float64 { return slices.Max(xs) - slices.Min(xs) }

// deviation is how far xs lie from 1 on average: mean |x − 1|.
func deviation(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += math.Abs(x - 1)
	}
	return s / float64(len(xs))
}

// maxVio is the worst tenant's SLO violation rate.
func maxVio(r Result) float64 {
	worst := 0.0
	for _, t := range r.Tenants {
		worst = max(worst, t.VioRate)
	}
	return worst
}

func avgUtil(r Result) float64 { return r.AvgUtil }

// ratio reads metric under kind over metric under base on the single mix of g.
func ratio(g grid, kind, base PolicyKind, metric func(Result) float64) func(cells, Options) float64 {
	return reduce(slices.Min, ratios(g, kind, base, metric))
}

// lsP99 and biBW are the latency tenant's P99 and the bandwidth tenant's
// bandwidth.
var lsP99, biBW = Result.LatencyTenantP99, Result.BandwidthTenant

// paperClaims is the paper's claims at EXPERIMENTS.md's budget over seeds
// 1–8: the table `fleetbench -fig claims` prints. The rows tier-1 judges at
// the budgets and seed its tests always used live with those tests.
func paperClaims() []claim {
	g := theGrids()
	// Sub-grids: the cells of a grid some rows read.
	hw, fourVSSDs, eightVSSDs := g.hwsw, g.scale, g.scale
	hw.kinds = hw.kinds[:1]
	fourVSSDs.mixes, eightVSSDs.mixes = g.scale.mixes[2:4], g.scale.mixes[4:]

	paper := []claim{
		{figure: "Fig. 2", quantity: "SW/HW avg utilization, mean over pairs", paper: "1.39×",
			rel: roughly(1.39), reads: g.hwsw, value: reduce(mean, ratios(g.hwsw, PolSoftware, PolHardware, avgUtil))},
		{figure: "Fig. 2", quantity: "SW/HW avg utilization, max over pairs", paper: "up to 1.52×",
			rel: roughly(1.52), reads: g.hwsw, value: reduce(slices.Max, ratios(g.hwsw, PolSoftware, PolHardware, avgUtil))},
		{figure: "Fig. 2", quantity: "HW P95 utilization, max over pairs", paper: "< 100%",
			rel: below(1), every: true, reads: g.hwsw, value: reduce(slices.Max, each(hw, func(c cell) float64 { return c.P95Util }))},
		{figure: "Fig. 3a", quantity: "SW/HW BI bandwidth, mean over pairs", paper: "1.64×", diverges: explained,
			rel: roughly(1.64), reads: g.hwsw, value: reduce(mean, ratios(g.hwsw, PolSoftware, PolHardware, biBW))},
		{figure: "Fig. 3a", quantity: "SW/HW BI bandwidth, max over pairs", paper: "up to 1.84×",
			rel: roughly(1.84), reads: g.hwsw, value: reduce(slices.Max, ratios(g.hwsw, PolSoftware, PolHardware, biBW))},
		{figure: "Fig. 3b", quantity: "SW/HW LS P99, max over pairs", paper: "up to 2.02×",
			rel: roughly(2.02), reads: g.hwsw, value: reduce(slices.Max, ratios(g.hwsw, PolSoftware, PolHardware, lsP99))},
		{figure: "Figs. 10–13", quantity: "FleetIO/HW avg utilization, mean over pairs", paper: "1.30×", diverges: explained,
			rel: roughly(1.30), reads: g.pairs, value: reduce(mean, ratios(g.pairs, PolFleetIO, PolHardware, avgUtil))},
		{figure: "Figs. 10–13", quantity: "FleetIO/HW avg utilization, max over pairs", paper: "up to 1.39×",
			rel: roughly(1.39), reads: g.pairs, value: reduce(slices.Max, ratios(g.pairs, PolFleetIO, PolHardware, avgUtil))},
		{figure: "Figs. 10–13", quantity: "FleetIO/HW avg utilization, min over pairs", paper: "> 1 on every pair",
			rel: above(1), reads: g.pairs, value: reduce(slices.Min, ratios(g.pairs, PolFleetIO, PolHardware, avgUtil))},
		{figure: "Figs. 10–13", quantity: "FleetIO/HW LS P99, max over pairs", paper: "≤ 1.2×", diverges: seedTails,
			rel: atMost(1.2), reads: g.pairs, value: reduce(slices.Max, ratios(g.pairs, PolFleetIO, PolHardware, lsP99))},
		{figure: "Figs. 10–13", quantity: "FleetIO/SW LS P99, max over pairs", paper: "< 1 on every pair", diverges: seedTails,
			rel: below(1), reads: g.pairs, value: reduce(slices.Max, ratios(g.pairs, PolFleetIO, PolSoftware, lsP99))},
		{figure: "Figs. 10–13", quantity: "SW/HW LS P99, mean over pairs", paper: "1.76×",
			rel: roughly(1.76), reads: g.pairs, value: reduce(mean, ratios(g.pairs, PolSoftware, PolHardware, lsP99))},
		{figure: "Figs. 10–13", quantity: "Adaptive/HW LS P99, mean over pairs", paper: "2.03×",
			rel: roughly(2.03), reads: g.pairs, value: reduce(mean, ratios(g.pairs, PolAdaptive, PolHardware, lsP99))},
		{figure: "Figs. 10–13", quantity: "SSDKeeper/HW avg utilization, max over pairs", paper: "≤ 1.08×", diverges: explained,
			rel: atMost(1.08), reads: g.pairs, value: reduce(slices.Max, ratios(g.pairs, PolSSDKeeper, PolHardware, avgUtil))},
		{figure: "Fig. 13", quantity: "FleetIO/HW BI bandwidth, mean over pairs", paper: "> 1",
			rel: above(1), reads: g.pairs, value: reduce(mean, ratios(g.pairs, PolFleetIO, PolHardware, biBW))},
		{figure: "Fig. 14", quantity: "FleetIO/HW avg utilization, max over the 4-vSSD mixes", paper: "up to 1.33×", diverges: explained,
			rel: roughly(1.33), reads: g.scale, value: reduce(slices.Max, ratios(fourVSSDs, PolFleetIO, PolHardware, avgUtil))},
		{figure: "Fig. 14", quantity: "FleetIO/HW avg utilization, 8-vSSD mix5", paper: "1.18×", diverges: explained,
			rel: roughly(1.18), reads: g.scale, value: ratio(eightVSSDs, PolFleetIO, PolHardware, avgUtil)},
		{figure: "Fig. 14", quantity: "FleetIO/HW LS P99, max over mixes", paper: "≤ 1.1×", diverges: seedTails,
			rel: atMost(1.1), reads: g.scale, value: reduce(slices.Max, ratios(g.scale, PolFleetIO, PolHardware, lsP99))},
		{figure: "Fig. 14", quantity: "FleetIO/HW BI bandwidth, min over mixes", paper: "≥ 1.25×", diverges: explained,
			rel: atLeast(1.25), reads: g.scale, value: reduce(slices.Min, ratios(g.scale, PolFleetIO, PolHardware, biBW))},
		{figure: "Fig. 15", quantity: "Customized-Local's mean distance of util/HW from 1, over the closest other variant's", paper: "≈ HW (closest)", diverges: explained,
			rel: below(1), reads: g.ablation, value: func(cs cells, opt Options) float64 {
				dev := func(k PolicyKind) float64 { return deviation(ratios(g.ablation, k, PolHardware, avgUtil)(cs, opt)) }
				return dev(PolFleetIOCustomizedLocal) / min(dev(PolFleetIOUnifiedGlobal), dev(PolFleetIO))
			}},
		{figure: "Fig. 15", quantity: "Unified-Global's spread of LS P99/HW over pairs, over FleetIO's", paper: "inconsistent across pairs",
			rel: above(1), reads: g.ablation, value: func(cs cells, opt Options) float64 {
				sp := func(k PolicyKind) float64 { return spread(ratios(g.ablation, k, PolHardware, lsP99)(cs, opt)) }
				return sp(PolFleetIOUnifiedGlobal) / sp(PolFleetIO)
			}},
		{figure: "Fig. 15", quantity: "FleetIO/Customized-Local avg utilization, mean over pairs", paper: "FleetIO best of both", diverges: explained,
			rel: atLeast(1), reads: g.ablation, value: reduce(mean, ratios(g.ablation, PolFleetIO, PolFleetIOCustomizedLocal, avgUtil))},
		{figure: "Fig. 16", quantity: "FleetIO/Mixed Isolation avg utilization", paper: "1.27×", diverges: explained,
			rel: roughly(1.27), value: func(_ cells, opt Options) float64 { r := mixedIsolationRuns(opt); return r[2].AvgUtil / r[0].AvgUtil }},
		{figure: "Fig. 16", quantity: "FleetIO/SW avg utilization", paper: "≥ 0.94×", diverges: explained,
			rel: atLeast(0.94), value: func(_ cells, opt Options) float64 { r := mixedIsolationRuns(opt); return r[2].AvgUtil / r[1].AvgUtil }},
		{figure: "Fig. 16", quantity: "FleetIO/Mixed Isolation BI bandwidth", paper: "1.42×", diverges: explained,
			rel: roughly(1.42), value: func(_ cells, opt Options) float64 { r := mixedIsolationRuns(opt); return biBW(r[2]) / biBW(r[0]) }},
		{figure: "Fig. 16", quantity: "FleetIO/Mixed Isolation LS P99", paper: "≤ 1.19×", diverges: seedTails,
			rel: atMost(1.19), value: func(_ cells, opt Options) float64 { r := mixedIsolationRuns(opt); return lsP99(r[2]) / lsP99(r[0]) }},
		{figure: "Fig. 17", quantity: "transfer/pretrained, worst distance from 1 over the six swaps", paper: "within 5%", diverges: explained,
			rel: atMost(0.05), value: func(_ cells, opt Options) float64 {
				r, worst := transferRuns(opt), 0.0
				for i, c := range transferCases() {
					worst = max(worst, math.Abs(c.metric(r[2*i+1])/c.metric(r[2*i])-1))
				}
				return worst
			}},
	}
	for i := range paper {
		paper[i].at, paper[i].seeds = paperBudget, paperSeeds
	}
	return paper
}

// verdict is a claim judged: its value at each of its seeds, in order.
type verdict struct {
	claim
	values []float64
}

func (v verdict) median() float64 {
	xs := slices.Clone(v.values)
	slices.Sort(xs)
	n := len(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

func (v verdict) holds() bool {
	if v.every {
		return !slices.ContainsFunc(v.values, func(x float64) bool { return !v.rel.holds(x) })
	}
	return v.rel.holds(v.median())
}

// failed is a verdict that fails the check: it does not hold and no
// ROADMAP item explains why, or it holds and is still marked diverges.
func (v verdict) failed() bool { return v.holds() == (v.diverges != "") }

// judge evaluates rows on workers: each row's grid over its seeds as one
// flat job list through the process memo (rows that read the same cells
// share them), then its value at each seed.
func judge(rows []claim, workers int) []verdict {
	out := make([]verdict, len(rows))
	for i, c := range rows {
		base := c.at.options(workers)
		g := c.reads
		g.seeds = c.seeds
		cs := scenarioMemo.run(base, g)
		out[i].claim = c
		for _, seed := range c.seeds {
			o := base
			o.Seed = seed
			out[i].values = append(out[i].values, c.value(cs, o))
		}
	}
	return out
}

// writeVerdicts prints vs as a markdown table: the artefact, the quantity,
// the paper's value, the value (over several seeds: the median and its
// range), the relation with its statistic, and the verdict.
func writeVerdicts(w io.Writer, vs []verdict) {
	num := func(v float64) string {
		switch {
		case math.Abs(v) < 10:
			return fmt.Sprintf("%.3f", v)
		case math.Abs(v) < 1000:
			return fmt.Sprintf("%.1f", v)
		}
		return fmt.Sprintf("%.0f", v)
	}
	fmt.Fprintln(w, "| artefact | quantity | paper | value | relation | holds |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, v := range vs {
		value, rel := num(v.values[0]), v.rel.String()
		if len(v.values) > 1 {
			value = fmt.Sprintf("%s [%s, %s]", num(v.median()), num(slices.Min(v.values)), num(slices.Max(v.values)))
			rel = "median " + rel
			if v.every {
				rel = "every seed " + v.rel.String()
			}
		}
		verdict := "holds"
		switch {
		case v.failed() && v.diverges != "":
			verdict = "FAILS: holds, drop its diverges mark (" + v.diverges + ")"
		case v.failed():
			verdict = "FAILS"
		case v.diverges != "":
			verdict = "diverges (" + v.diverges + ")"
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %s |\n", v.figure, v.quantity, v.paper, value, rel, verdict)
	}
}

// figureClaims judges the paper's claims at EXPERIMENTS.md's budget over
// seeds 1–8 and prints the table; only opt's Workers is read.
func figureClaims(w io.Writer, opt Options) {
	o := paperBudget.options(opt.Workers)
	fmt.Fprintf(w, "Claims at EXPERIMENTS.md's budget (warm-up %gs, measured %gs, window %gms), seeds %d-%d\n\n",
		float64(o.Warmup)/1e9, float64(o.Duration)/1e9, float64(o.Window)/1e6, paperSeeds[0], paperSeeds[len(paperSeeds)-1])
	writeVerdicts(w, judge(paperClaims(), opt.Workers))
}
