package harness

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/sim"
)

// rendered is the budget TestScenarios pins every scenario at, pretrained
// as the scenario is.
func (sc Scenario) rendered() budget {
	return budget{name: "rendered", pretrained: sc.Pretrained, edit: func(o *Options) {
		o.Window, o.Warmup, o.Duration = 250*sim.Millisecond, sim.Second, 2*sim.Second
		o.BlocksPerChip, o.FleetDevices = 32, 8
	}}
}

// The budgets of the shape rows: a short device run, the same with longer
// online fine-tuning, and a full-length measured run.
var (
	shapeBudget = budget{name: "shape", edit: shortRun}
	tradeBudget = budget{name: "tradeoff", pretrained: true, edit: func(o *Options) {
		shortRun(o)
		o.Warmup = 4 * sim.Second
	}}
	harvestBudget = budget{name: "harvest", pretrained: true, edit: func(o *Options) {
		o.Window, o.Warmup, o.Duration = 200*sim.Millisecond, 4*sim.Second, 8*sim.Second
	}}
	// heavyBudget is the fault scenario's rendered budget under
	// fault.Heavy() on every run.
	heavyBudget = budget{name: "heavy faults", edit: func(o *Options) {
		o.Window, o.Warmup, o.Duration, o.BlocksPerChip = 250*sim.Millisecond, sim.Second, 2*sim.Second, 32
		heavy := fault.Heavy()
		o.Faults = &heavy
	}}
)

func shortRun(o *Options) {
	o.Window, o.Warmup, o.Duration, o.BlocksPerChip = 200*sim.Millisecond, 2*sim.Second, 4*sim.Second, 32
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// fewestCompleted is the fewest requests any tenant of r completed.
func fewestCompleted(r Result) float64 {
	least := math.Inf(1)
	for _, t := range r.Tenants {
		least = min(least, float64(t.Completed))
	}
	return least
}

// on reads one Result of the single mix and level of g at one seed.
func on(g grid, kind PolicyKind, metric func(Result) float64) func(cells, Options) float64 {
	return func(cs cells, opt Options) float64 {
		return metric(cs.at(g.mixes[0], kind, g.rungs()[0].name, opt.Seed).Result)
	}
}

// atSeed1 gives each of rows seed 1 and, where the paper states none, "—"
// for the paper's value.
func atSeed1(rows []claim) []claim {
	for i := range rows {
		rows[i].seeds = []int64{1}
		if rows[i].paper == "" {
			rows[i].paper = "—"
		}
	}
	return rows
}

// shapeClaims is the §2.2 contrast and the Figure 10 tradeoff on
// YCSB+TeraSort at seed 1, as tier-1 has always checked them, and the
// heavy-fault grid's invariant rows over seeds 1–3.
func shapeClaims() []claim {
	yt := Pair("YCSB", "TeraSort")
	ytHWSW := grid{mixes: []MixSpec{yt}, kinds: []PolicyKind{PolHardware, PolSoftware}}
	ytTrade := grid{mixes: ytHWSW.mixes, kinds: []PolicyKind{PolHardware, PolSoftware, PolFleetIO}}
	// Under fault.Heavy(), a channel that runs out of free blocks wedges
	// GC, so a program failure on it is never recovered: mix5 HW at seed 1
	// settles at 284 injected, 283 remapped, 282 recovered.
	wedged := grid{mixes: []MixSpec{yt, table5Mixes()[4]}, kinds: []PolicyKind{PolHardware, PolAdaptive, PolSSDKeeper}}
	heavy := balanceRow("heavy faults", "cells with a row that does not hold",
		[]claim{{at: heavyBudget, seeds: []int64{1, 2, 3}, reads: wedged}}, nil)
	heavy.reads, heavy.diverges = wedged, "ROADMAP item 16"
	return append(atSeed1([]claim{
		{figure: "Fig. 2", quantity: "SW/HW avg utilization, YCSB+TeraSort", rel: above(1), at: shapeBudget,
			reads: ytHWSW, value: ratio(ytHWSW, PolSoftware, PolHardware, avgUtil)},
		{figure: "Fig. 3a", quantity: "SW/HW BI bandwidth, YCSB+TeraSort", rel: above(1), at: shapeBudget,
			reads: ytHWSW, value: ratio(ytHWSW, PolSoftware, PolHardware, biBW)},
		{figure: "Fig. 3b", quantity: "SW/HW LS P99, YCSB+TeraSort", rel: above(1), at: shapeBudget,
			reads: ytHWSW, value: ratio(ytHWSW, PolSoftware, PolHardware, lsP99)},
		{figure: "Fig. 2", quantity: "HW avg utilization, YCSB+TeraSort", rel: relation{0.05, 1, true, false}, at: shapeBudget,
			reads: ytHWSW, value: on(ytHWSW, PolHardware, avgUtil)},
		{figure: "Fig. 2", quantity: "fewest requests a HW tenant completed, YCSB+TeraSort", rel: above(0), at: shapeBudget,
			reads: ytHWSW, value: on(ytHWSW, PolHardware, fewestCompleted)},
		{figure: "Fig. 10", quantity: "FleetIO/HW avg utilization, YCSB+TeraSort", rel: above(1), at: tradeBudget,
			reads: ytTrade, value: ratio(ytTrade, PolFleetIO, PolHardware, avgUtil)},
		{figure: "Fig. 10", quantity: "FleetIO/SW LS P99, YCSB+TeraSort", rel: below(1), at: tradeBudget,
			reads: ytTrade, value: ratio(ytTrade, PolFleetIO, PolSoftware, lsP99)},
		{figure: "Fig. 10", quantity: "FleetIO/HW avg utilization, YCSB+TeraSort", paper: "1.30×", rel: atLeast(1.10), at: harvestBudget,
			reads: ytTrade, value: ratio(ytTrade, PolFleetIO, PolHardware, avgUtil)},
		{figure: "Fig. 10", quantity: "FleetIO/SW LS P99, YCSB+TeraSort", rel: below(1), at: harvestBudget,
			reads: ytTrade, value: ratio(ytTrade, PolFleetIO, PolSoftware, lsP99)},
		{figure: "Fig. 10", quantity: "FleetIO/HW LS P99, YCSB+TeraSort", paper: "≤ 1.2×", rel: atMost(2.2), at: harvestBudget,
			reads: ytTrade, value: ratio(ytTrade, PolFleetIO, PolHardware, lsP99)},
	}), heavy)
}

// scenarioClaims is what each scenario exists to exercise, read off the runs
// it renders at its rendered budget and seed 1: TestScenarios judges each
// row on the runs it has just rendered.
func scenarioClaims() []claim {
	g := theGrids()
	// Sub-grids: the cells of a grid some rows read.
	unified, eightVSSDs, steady, heavy := g.ablation, g.scale, g.shapes, g.faults
	unified.kinds, eightVSSDs.mixes = []PolicyKind{PolFleetIOUnifiedGlobal}, g.scale.mixes[4:]
	steady.levels, heavy.levels = g.shapes.levels[:1], g.faults.levels[2:]
	results := func(metric func(Result) float64) func(cell) float64 {
		return func(c cell) float64 { return metric(c.Result) }
	}
	countOf := func(g grid, bad func(cell) bool) func(cells, Options) float64 {
		return reduce(sum, each(g, func(c cell) float64 { return b2f(bad(c)) }))
	}
	// overPlacements reduces f over the fleet scenario's placement racks.
	overPlacements := func(reduce func([]float64) float64, f func(fleet.Stats) float64) func(cells, Options) float64 {
		return func(_ cells, opt Options) float64 {
			var xs []float64
			for _, p := range fleet.Placements() {
				xs = append(xs, f(FleetScenario(p, opt)))
			}
			return reduce(xs)
		}
	}
	labels := func(c cell) (classified, distinct int) {
		seen := map[string]bool{}
		for _, l := range c.types {
			if l != "n/a" {
				classified++
				seen[l] = true
			}
		}
		return classified, len(seen)
	}
	rows := []claim{
		{figure: "-fig 2", quantity: "SW/HW avg utilization, max over pairs", rel: above(0),
			reads: g.hwsw, value: reduce(slices.Max, ratios(g.hwsw, PolSoftware, PolHardware, avgUtil))},
		{figure: "-fig 3", quantity: "LS P99 under HW and SW, min over pairs", rel: above(0),
			reads: g.hwsw, value: reduce(slices.Min, each(g.hwsw, results(lsP99)))},
		{figure: "-fig 6", quantity: "test clustering accuracy", paper: "98.4%", rel: above(0),
			value: func(cells, Options) float64 { return clustering() }},
		{figure: "-fig 10", quantity: "BI bandwidth, min over pairs and policies", rel: above(0),
			reads: g.pairs, value: reduce(slices.Min, each(g.pairs, results(biBW)))},
		{figure: "-fig 14", quantity: "mix5 tenants that completed requests, fewest over policies", rel: exactly(8),
			reads: g.scale, value: reduce(slices.Min, each(eightVSSDs, func(c cell) float64 {
				n := 0.0
				for _, t := range c.Tenants {
					n += b2f(t.Completed > 0)
				}
				return n
			}))},
		{figure: "-fig 15", quantity: "Unified-Global avg utilization, min over pairs", rel: above(0),
			reads: g.ablation, value: reduce(slices.Min, each(unified, results(avgUtil)))},
		{figure: "-fig 16", quantity: "FleetIO avg utilization on the mixed topology", rel: atLeast(0.01),
			reads: g.mixed, value: on(g.mixed, PolFleetIO, avgUtil)},
		{figure: "-fig 17", quantity: "each swap's metric, min over both runs of every swap", rel: above(0),
			reads: g.transfer, value: reduce(slices.Min, each(g.transfer, kept))},
		{figure: "-fig faults", quantity: "program failures injected at heavy, fewest over pairs", rel: atLeast(1),
			reads: g.faults, value: reduce(slices.Min, each(heavy, func(c cell) float64 { return float64(c.faults.Device.ProgramFails) }))},
		{figure: "-fig fleet", quantity: "completed migrations, most over placements", rel: atLeast(1),
			value: overPlacements(slices.Max, func(st fleet.Stats) float64 { return float64(st.MigrationsCompleted) })},
		{figure: "-fig tiers", quantity: "promotes under the learned tier policy", rel: atLeast(1),
			value: func(_ cells, opt Options) float64 { return float64(TierScenario(fleet.TierLearned, opt).Promotes) }},
		{figure: "-fig tiers", quantity: "demotes under the learned tier policy", rel: atLeast(1),
			value: func(_ cells, opt Options) float64 { return float64(TierScenario(fleet.TierLearned, opt).Demotes) }},
		{figure: "-fig workloads", quantity: "cells without one type label per tenant", rel: exactly(0),
			reads: g.shapes, value: countOf(g.shapes, func(c cell) bool { return len(c.types) != len(c.Tenants) })},
		{figure: "-fig workloads", quantity: "classified tenants, fewest over cells", rel: atLeast(1),
			reads: g.shapes, value: reduce(slices.Min, each(g.shapes, func(c cell) float64 { n, _ := labels(c); return float64(n) }))},
		{figure: "-fig workloads", quantity: "distinct types at the steady level, fewest over pairs", rel: atLeast(2),
			reads: g.shapes, value: reduce(slices.Min, each(steady, func(c cell) float64 { _, d := labels(c); return float64(d) }))},
		{figure: "-fig workloads", quantity: "BI bandwidth, min over cells", rel: above(0),
			reads: g.shapes, value: reduce(slices.Min, each(g.shapes, results(biBW)))},
		{figure: "-fig workloads", quantity: "LS P99, min over cells", rel: above(0),
			reads: g.shapes, value: reduce(slices.Min, each(g.shapes, results(lsP99)))},
		{figure: "-fig workloads", quantity: "shaped cells that print as their pair's steady cell", rel: exactly(0),
			reads: g.shapes, value: func(cs cells, opt Options) float64 {
				// A cell's numbers at the precision the ladder prints them.
				printed := func(c cell) string {
					return fmt.Sprintf("%.2f %.3f %.1f %.3f", c.AvgUtil*100, maxVio(c.Result)*100, biBW(c.Result), lsP99(c.Result))
				}
				n := 0.0
				for _, mix := range g.shapes.mixes {
					st := printed(cs.at(mix, PolFleetIO, steady.levels[0].name, opt.Seed))
					for _, l := range g.shapes.levels[1:] {
						n += b2f(printed(cs.at(mix, PolFleetIO, l.name, opt.Seed)) == st)
					}
				}
				return n
			}},
		{figure: "-fig workloads", quantity: "type labels in the cohort rack", rel: atLeast(1),
			value: func(_ cells, opt Options) float64 { return float64(len(cohortScenario(opt).TypeCounts)) }},
	}
	for _, sc := range Scenarios() {
		var mine []claim
		for i := range rows {
			if rows[i].figure == "-fig "+sc.Name {
				rows[i].at = sc.rendered()
				mine = append(mine, rows[i])
			}
		}
		if len(mine) > 0 && (sc.racks != nil || slices.ContainsFunc(mine, func(c claim) bool { return len(c.reads.mixes) > 0 })) {
			rows = append(rows, balanceRow("-fig "+sc.Name, "cells and racks with a row that does not hold", mine, sc.racks))
		}
	}
	return atSeed1(rows)
}

// checkVerdicts fails t on every verdict that does not hold and names no
// ROADMAP item that explains it.
func checkVerdicts(t *testing.T, vs []verdict) {
	t.Helper()
	for _, v := range vs {
		if v.failed() {
			t.Errorf("%s: %s at the %s budget = %v over seeds %v; want %s", v.figure, v.quantity, v.at.name, v.values, v.seeds, v.rel)
		}
	}
}

// judgeBudget judges the shape rows at one budget and logs them as
// `fleetbench -fig claims` prints its table. TestScenarios judges the
// scenario rows on the runs it renders, and `fleetbench -fig claims` (a leg
// of scripts/check.sh) the paper's claims at EXPERIMENTS.md's budget.
func judgeBudget(t *testing.T, at budget) {
	t.Helper()
	var rows []claim
	for _, c := range shapeClaims() {
		if c.at.name == at.name {
			rows = append(rows, c)
		}
	}
	if len(rows) == 0 {
		t.Fatalf("no row at the %s budget", at.name)
	}
	vs := judge(rows, 0)
	var b strings.Builder
	writeVerdicts(&b, vs)
	t.Log("\n" + b.String())
	checkVerdicts(t, vs)
}

// The §2.2 motivation shape: software isolation wins utilization and
// bandwidth, hardware isolation wins tail latency.
func TestHardwareVsSoftwareShape(t *testing.T) {
	t.Parallel()
	judgeBudget(t, shapeBudget)
}

// The headline Figure 10 shape: FleetIO lands between the extremes —
// utilization above hardware isolation, tail latency below software
// isolation.
func TestFleetIOTradeoffShape(t *testing.T) {
	t.Parallel()
	judgeBudget(t, tradeBudget)
}

// The Figure 10 acceptance check with a pretrained model at full length:
// FleetIO clearly beats hardware isolation on utilization while staying
// below software isolation's tail latency.
func TestPretrainedFleetIOHarvests(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("the harvest budget is a full-length run")
	}
	judgeBudget(t, harvestBudget)
}

// A heavy-fault device whose channel runs out of free blocks wedges GC and
// never closes its recovery ledger: the row diverges (ROADMAP item 16, the
// dead device) and fails once the wedge is fixed.
func TestHeavyFaultsWedge(t *testing.T) {
	t.Parallel()
	judgeBudget(t, heavyBudget)
}

// TestClaimsTable checks the tables themselves: every row is complete, a
// scenario row names a rendered scenario, a shape row is at a budget some
// test judges, every figure of EXPERIMENTS.md's paper tables has a paper
// row, and EXPERIMENTS.md prints each paper row as the table states it.
func TestClaimsTable(t *testing.T) {
	experiments, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	rendered := map[string]bool{}
	for _, sc := range Scenarios() {
		rendered["-fig "+sc.Name] = !unpinned[sc.Name]
	}
	judged := map[string]bool{shapeBudget.name: true, tradeBudget.name: true, harvestBudget.name: true, heavyBudget.name: true}
	paper, shape, scenario := paperClaims(), shapeClaims(), scenarioClaims()
	for _, c := range slices.Concat(paper, shape, scenario) {
		if c.quantity == "" || c.paper == "" || c.at.edit == nil || len(c.seeds) == 0 || c.value == nil {
			t.Errorf("incomplete row %+v", c)
		}
	}
	for _, c := range scenario {
		if !rendered[c.figure] {
			t.Errorf("%s reads %q, which TestScenarios does not render", c.quantity, c.figure)
		}
	}
	for _, c := range shape {
		if !judged[c.at.name] {
			t.Errorf("%s %s is at the %s budget, which no test judges", c.figure, c.quantity, c.at.name)
		}
	}
	figures := map[string]bool{}
	for _, c := range paper {
		figures[c.figure] = true
		if c.at.name != paperBudget.name || !slices.Equal(c.seeds, paperSeeds) {
			t.Errorf("%s %s: at the %s budget over seeds %v, want EXPERIMENTS.md's over %v", c.figure, c.quantity, c.at.name, c.seeds, paperSeeds)
		}
		if row := fmt.Sprintf("| %s | %s | %s |", c.figure, c.quantity, c.paper); !strings.Contains(string(experiments), row) {
			t.Errorf("EXPERIMENTS.md has no row %q: paste `fleetbench -fig claims` there", row)
		}
	}
	for _, f := range []string{"Fig. 2", "Fig. 3a", "Fig. 3b", "Figs. 10–13", "Fig. 14", "Fig. 15", "Fig. 17"} {
		if !figures[f] {
			t.Errorf("no paper row for %s", f)
		}
	}
}

func TestRelation(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		rel  relation
		text string
		in   []float64
		out  []float64
	}{
		{above(1), "> 1", []float64{1.01, math.Inf(1)}, []float64{1, 0.5, nan}},
		{atLeast(1.1), "≥ 1.1", []float64{1.1, 2}, []float64{1.09, nan}},
		{below(1), "< 1", []float64{0.99, math.Inf(-1)}, []float64{1, nan}},
		{atMost(1.2), "≤ 1.2", []float64{1.2, 0}, []float64{1.21, nan}},
		{exactly(0), "= 0", []float64{0}, []float64{1e-12, -1, nan}},
		{roughly(1.5), "[1.25, 2]", []float64{1.25, 1.5, 2}, []float64{1.24, 2.01, nan}},
		{relation{0.05, 1, true, false}, "(0.05, 1]", []float64{0.06, 1}, []float64{0.05, 1.01}},
	} {
		if got := c.rel.String(); got != c.text {
			t.Errorf("relation %+v prints %q, want %q", c.rel, got, c.text)
		}
		for _, v := range c.in {
			if !c.rel.holds(v) {
				t.Errorf("%s does not hold at %v", c.text, v)
			}
		}
		for _, v := range c.out {
			if c.rel.holds(v) {
				t.Errorf("%s holds at %v", c.text, v)
			}
		}
	}
}

// TestVerdictStatistic: a median row holds when the median over seeds does,
// an every-seed row only when each seed does, a failing row marked with the
// ROADMAP item that explains it does not fail the check, and a holding row
// still so marked does.
func TestVerdictStatistic(t *testing.T) {
	v := verdict{claim: claim{rel: above(1)}, values: []float64{0.9, 1.2, 1.3, 0.8}}
	if v.median() != 1.05 || !v.holds() {
		t.Errorf("median %v of %v: holds = %v, want 1.05 and true", v.median(), v.values, v.holds())
	}
	v.every = true
	if v.holds() || !v.failed() {
		t.Error("an every-seed row with a failing seed holds")
	}
	v.diverges = "ROADMAP item 21"
	if v.failed() {
		t.Error("a failing row marked diverges fails the check")
	}
	v.every = false
	if !v.failed() {
		t.Error("a holding row still marked diverges passes the check")
	}
}
