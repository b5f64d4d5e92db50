package harness

import (
	"fmt"
	"io"

	"repro/internal/fleet"
)

// Scenario is one named experiment: what `fleetbench -fig <Name>` runs and,
// except for the entries that print host time or judge the claims, what
// TestScenarios pins against testdata/scenarios/<Name>.golden at one and
// four workers. What a scenario must show is a row of the claims table that
// reads its runs, not its text.
type Scenario struct {
	// Name is the -fig value.
	Name string
	// Pretrained marks scenarios whose FleetIO agents start from the
	// offline-pretrained model (callers pass WithPretrained options).
	Pretrained bool
	// Render runs the scenario and prints its figure.
	Render func(w io.Writer, opt Options)
	// racks is the rack roll-ups Render prints, at opt; nil for a scenario
	// that runs no rack.
	racks func(opt Options) []fleet.Stats
}

// figureGrids are the grids the paper figures and the ladders project; the
// scenario table and the claims table read the same ones.
type figureGrids struct {
	hwsw, pairs, scale, ablation grid
	mixed, transfer              grid // Figures 16 and 17: levels that run their cells
	faults, shapes               grid // the ladders: FleetIO on two pairs
}

func theGrids() figureGrids {
	fleetIO, ladderMixes := []PolicyKind{PolFleetIO}, evalPairs()[:2]
	var finals []MixSpec
	for _, c := range transferCases() {
		finals = append(finals, c.final())
	}
	return figureGrids{
		hwsw:  grid{mixes: evalPairs(), kinds: []PolicyKind{PolHardware, PolSoftware}},
		pairs: grid{mixes: evalPairs(), kinds: allPolicies()},
		scale: grid{mixes: table5Mixes(), kinds: allPolicies()},
		// Figure 15's reward ablation.
		ablation: grid{mixes: evalPairs(), kinds: []PolicyKind{
			PolHardware, PolFleetIOCustomizedLocal, PolFleetIOUnifiedGlobal, PolFleetIO, PolSoftware}},
		// Figure 16: mix3 on the mixed topology, calibrated as Figure 14's.
		mixed: grid{mixes: table5Mixes()[2:3], kinds: []PolicyKind{PolHardware, PolSoftware, PolFleetIO},
			levels: []level{{Name: "mixed", run: measureMixedIsolation}}},
		// Figure 17: each final mix under FleetIO from the start (the pair
		// cell, where the final mix is an evaluation pair) and after a swap.
		transfer: grid{mixes: finals, kinds: fleetIO, levels: []level{{}, {Name: "transfer", run: runTransfer}}},
		faults:   grid{mixes: ladderMixes, kinds: fleetIO, levels: faultLevels()},
		shapes:   grid{mixes: ladderMixes, kinds: fleetIO, levels: workloadLevels()},
	}
}

// Scenarios is the table of everything the harness can render, in
// `fleetbench -fig all` order followed by the non-paper scenarios. The paper
// figures and the ladders are projections of grids, computed through the
// process memo, so entries that read the same cells share them.
func Scenarios() []Scenario {
	g := theGrids()
	// figureAll renders every paper figure from the union of their grids,
	// one job list.
	figureAll := func(w io.Writer, opt Options) {
		cs := scenarioMemo.run(opt, g.pairs, g.scale, g.ablation, g.mixed, g.transfer)
		figure2(w, g.hwsw, cs, opt.Seed)
		figure3(w, g.hwsw, cs, opt.Seed)
		figure6(w)
		figures10to13(w, g.pairs, cs, opt.Seed)
		figure14(w, g.scale, cs, opt.Seed)
		figure15(w, g.ablation, cs, opt.Seed)
		figure16(w, g.mixed, cs, opt.Seed)
		figure17(w, g.transfer, cs, opt.Seed)
		overheads(w)
	}
	return []Scenario{
		{Name: "all", Pretrained: true, Render: figureAll},
		{Name: "2", Pretrained: true, Render: view(g.hwsw, figure2)},
		{Name: "3", Pretrained: true, Render: view(g.hwsw, figure3)},
		{Name: "6", Render: func(w io.Writer, _ Options) { figure6(w) }},
		{Name: "10", Pretrained: true, Render: view(g.pairs, figures10to13)},
		{Name: "14", Pretrained: true, Render: view(g.scale, figure14)},
		{Name: "15", Pretrained: true, Render: view(g.ablation, figure15)},
		{Name: "16", Pretrained: true, Render: view(g.mixed, figure16)},
		{Name: "17", Pretrained: true, Render: view(g.transfer, figure17)},
		{Name: "faults", Pretrained: true, Render: func(w io.Writer, opt Options) { figureFaults(w, g.faults, opt) }},
		// No pretrained policy to seed on either rack: the tiered rack's
		// learned agents train online from scratch.
		{Name: "fleet", Render: figureFleet, racks: racksOf(fleet.Placements(), FleetScenario)},
		{Name: "tiers", Render: figureTiers, racks: racksOf(fleet.TierPolicies(), TierScenario)},
		{Name: "workloads", Pretrained: true, Render: func(w io.Writer, opt Options) { figureWorkloads(w, g.shapes, opt) },
			racks: func(opt Options) []fleet.Stats { return []fleet.Stats{cohortScenario(opt)} }},
		{Name: "overhead", Render: func(w io.Writer, _ Options) { overheads(w) }},
		// The claims judge themselves at their own budgets, whatever the
		// flags say; each budget says whether it is pretrained.
		{Name: "claims", Render: figureClaims},
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
			fmt.Fprintf(w, "  %-*s %9.2f %9.3f%s\n", nameWidth, l.Name, c.AvgUtil*100, maxVio(c.Result)*100, cols(c))
		}
	}
}
