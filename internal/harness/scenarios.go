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
// `fleetbench -fig all` order followed by the non-paper scenarios.
func Scenarios() []Scenario {
	hwsw := []PolicyKind{PolHardware, PolSoftware}
	scenarioMixes := evalPairs()[:2]
	return []Scenario{
		{"all", true, figureAll, `Section 4\.7`},
		{"2", true, func(w io.Writer, opt Options) { figure2(w, pairGrid(hwsw, opt)) }, `software/hardware avg-util ratio: max \d`},
		{"3", true, func(w io.Writer, opt Options) { figure3(w, pairGrid(hwsw, opt)) }, `Figure 3b`},
		{"6", false, func(w io.Writer, _ Options) { figure6(w) }, `test clustering accuracy: \d`},
		{"10", true, func(w io.Writer, opt Options) { figures10to13(w, pairGrid(allPolicies(), opt)) }, `Figure 13`},
		{"14", true, figure14, `mix5 +8 `},
		{"15", true, figure15, `FIO-UnifGlob`},
		{"16", true, func(w io.Writer, opt Options) { figure16(w, opt) }, `FleetIO +util= *[1-9]`},
		{"17", true, figure17, `Y \+ \(P->T\) +\d`},
		// Every injected failure recovered: a heavy row, and no imbalance line.
		{"faults", true, func(w io.Writer, opt Options) { figureFaults(w, scenarioMixes, opt) }, `^[^!]*heavy +\d[^!]*$`},
		// The rack must complete at least one cold migration. No pretrained
		// policy to seed on either rack: the tiered rack's learned agents
		// train online from scratch.
		{"fleet", false, figureFleet, `migrations: started=[1-9]\d* completed=[1-9]`},
		// The learned placement head must move tenants both ways.
		{"tiers", false, figureTiers, `(?s)tier-policy=learned.* promotes=[1-9]\d* demotes=[1-9]`},
		// The cohort rack must classify live traffic.
		{"workloads", true, func(w io.Writer, opt Options) { figureWorkloads(w, scenarioMixes, opt) }, `types: .*=`},
		{"overhead", false, func(w io.Writer, _ Options) { overheads(w) }, `inference per window`},
	}
}

// figureAll renders every paper figure; Figures 2, 3, and 10–13 share one
// pair grid.
func figureAll(w io.Writer, opt Options) {
	grid := pairGrid(allPolicies(), opt)
	figure2(w, grid)
	figure3(w, grid)
	figure6(w)
	figures10to13(w, grid)
	figure14(w, opt)
	figure15(w, opt)
	figure16(w, opt)
	figure17(w, opt)
	overheads(w)
}

// level is one rung of a scenario ladder: a name and the Options edit
// that puts a run on it.
type level struct {
	Name  string
	Apply func(*Options)
}

// levelRun is one level's finished run within a sweep.
type levelRun struct {
	Level string
	*Run
}

// sweep calibrates the mix once, on unedited options, and measures it under
// FleetIO at every level. The levels are independent deterministic
// simulations and fan out over opt.Workers goroutines; results come back
// in ladder order regardless of worker count.
func sweep(mix MixSpec, opt Options, levels []level) []levelRun {
	slos := Calibrate(mix, opt)
	out := make([]levelRun, len(levels))
	forEach(len(levels), opt.workers(), func(i int) {
		o := opt
		levels[i].Apply(&o)
		out[i] = levelRun{levels[i].Name, Measure(mix, PolFleetIO, slos, o)}
	})
	return out
}

// figureSweep renders one table per mix, one row per level: the level name
// (under nameHead, padded to nameWidth), utilization and the worst
// tenant's SLO violation rate, then the scenario's own columns.
func figureSweep(w io.Writer, mixes []MixSpec, opt Options, levels []level,
	nameWidth int, nameHead, colsHead string, cols func(*Run) string) {
	for _, mix := range mixes {
		fmt.Fprintf(w, "%s (%v)\n", mix.Label, mix.Workloads)
		fmt.Fprintf(w, "  %-*s %9s %9s%s\n", nameWidth, nameHead, "util%", "maxVio%", colsHead)
		for _, row := range sweep(mix, opt, levels) {
			maxVio := 0.0
			for _, tr := range row.Result.Tenants {
				maxVio = max(maxVio, tr.VioRate)
			}
			fmt.Fprintf(w, "  %-*s %9.2f %9.3f%s\n", nameWidth, row.Level,
				row.Result.AvgUtil*100, maxVio*100, cols(row.Run))
		}
	}
}
