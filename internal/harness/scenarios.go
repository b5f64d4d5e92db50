package harness

import (
	"fmt"
	"io"
)

// Scenario is one named experiment: what `fleetbench -fig <Name>` runs and
// what TestScenarios pins against testdata/scenarios/<Name>.golden at one
// and four workers.
type Scenario struct {
	// Name is the -fig value.
	Name string
	// Pretrained marks scenarios whose FleetIO agents start from the
	// offline-pretrained model (callers pass WithPretrained options).
	Pretrained bool
	// Render runs the scenario and prints its figure.
	Render func(w io.Writer, opt Options)
	// Smoke is a regexp the rendering must match: the one line that shows
	// the scenario exercised what it exists to exercise.
	Smoke string
}

// Scenarios is the table of everything the harness can render, in
// `fleetbench -fig all` order followed by the non-paper scenarios. The paper
// figures and the ladders are projections of grids, computed through the
// process memo, so entries that read the same cells share them.
func Scenarios() []Scenario {
	hwsw := grid{mixes: evalPairs(), kinds: []PolicyKind{PolHardware, PolSoftware}}
	pairs := grid{mixes: evalPairs(), kinds: allPolicies()}
	scale := grid{mixes: table5Mixes(), kinds: allPolicies()}
	// Figure 15's reward ablation.
	ablation := grid{mixes: evalPairs(), kinds: []PolicyKind{
		PolHardware, PolFleetIOCustomizedLocal, PolFleetIOUnifiedGlobal, PolFleetIO, PolSoftware}}
	// figureAll renders every paper figure from the union of their grids.
	figureAll := func(w io.Writer, opt Options) {
		cs := scenarioMemo.run(opt, pairs, scale, ablation)
		figure2(w, hwsw, cs, opt.Seed)
		figure3(w, hwsw, cs, opt.Seed)
		figure6(w)
		figures10to13(w, pairs, cs, opt.Seed)
		figure14(w, scale, cs, opt.Seed)
		figure15(w, ablation, cs, opt.Seed)
		figure16(w, opt)
		figure17(w, opt)
		overheads(w)
	}
	fleetIO, ladderMixes := []PolicyKind{PolFleetIO}, evalPairs()[:2]
	faults := grid{mixes: ladderMixes, kinds: fleetIO, levels: faultLevels()}
	shapes := grid{mixes: ladderMixes, kinds: fleetIO, levels: workloadLevels()}
	return []Scenario{
		{"all", true, figureAll, `Section 4\.7`},
		{"2", true, view(hwsw, figure2), `software/hardware avg-util ratio: max \d`},
		{"3", true, view(hwsw, figure3), `Figure 3b`},
		{"6", false, func(w io.Writer, _ Options) { figure6(w) }, `test clustering accuracy: \d`},
		{"10", true, view(pairs, figures10to13), `Figure 13`},
		{"14", true, view(scale, figure14), `mix5 +8 `},
		{"15", true, view(ablation, figure15), `FIO-UnifGlob`},
		{"16", true, func(w io.Writer, opt Options) { figure16(w, opt) }, `FleetIO +util= *[1-9]`},
		{"17", true, figure17, `Y \+ \(P->T\) +\d`},
		// Every injected failure recovered: a heavy row, and no imbalance line.
		{"faults", true, func(w io.Writer, opt Options) { figureFaults(w, faults, opt) }, `^[^!]*heavy +\d[^!]*$`},
		// The rack must complete at least one cold migration. No pretrained
		// policy to seed on either rack: the tiered rack's learned agents
		// train online from scratch.
		{"fleet", false, figureFleet, `migrations: started=[1-9]\d* completed=[1-9]`},
		// The learned placement head must move tenants both ways.
		{"tiers", false, figureTiers, `(?s)tier-policy=learned.* promotes=[1-9]\d* demotes=[1-9]`},
		// The cohort rack must classify live traffic.
		{"workloads", true, func(w io.Writer, opt Options) { figureWorkloads(w, shapes, opt) }, `types: .*=`},
		{"overhead", false, func(w io.Writer, _ Options) { overheads(w) }, `inference per window`},
	}
}

// view is a figure drawn from g: show over g's cells at opt.Seed.
func view(g grid, show func(io.Writer, grid, cells, int64)) func(io.Writer, Options) {
	return func(w io.Writer, opt Options) { show(w, g, scenarioMemo.run(opt, g), opt.Seed) }
}

// ladder renders g, one policy over levels, as one table per mix with one
// row per level: the level name (under nameHead, padded to nameWidth),
// utilization and the worst tenant's SLO violation rate, then the
// scenario's own columns.
func ladder(w io.Writer, g grid, opt Options, nameWidth int, nameHead, colsHead string, cols func(cell) string) {
	cs := scenarioMemo.run(opt, g)
	for _, mix := range g.mixes {
		fmt.Fprintf(w, "%s (%v)\n", mix.Label, mix.Workloads)
		fmt.Fprintf(w, "  %-*s %9s %9s%s\n", nameWidth, nameHead, "util%", "maxVio%", colsHead)
		for _, l := range g.levels {
			c := cs.at(mix, g.kinds[0], l.Name, opt.Seed)
			maxVio := 0.0
			for _, tr := range c.Tenants {
				maxVio = max(maxVio, tr.VioRate)
			}
			fmt.Fprintf(w, "  %-*s %9.2f %9.3f%s\n", nameWidth, l.Name, c.AvgUtil*100, maxVio*100, cols(c))
		}
	}
}
