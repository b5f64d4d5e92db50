package harness

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/fleet"
	"repro/internal/workload"
)

// Rack sizes when Options.FleetDevices is zero. The tiered rack is small
// enough that the learned policy's per-shard agent stacks keep the figure
// fast and large enough for both tiers to hold several tenants; the cohort
// rack is smaller than the placement rack because every epoch also
// classifies tenant traffic.
const (
	defaultFleetDevices  = 64
	defaultTierDevices   = 8
	defaultCohortDevices = 8
)

// rackConfig maps harness Options onto a fleet run of FleetDevices (or
// defDevices) shards: the experiment seed derives every shard and tenant
// stream, Workers sizes the shard-worker pool, and every shard reads the
// device options a single run reads (faults, shape, replay trace). Each
// rack scenario adds only what distinguishes it.
func rackConfig(opt Options, defDevices int) fleet.Config {
	opt.mustRun()
	cfg := fleet.Config{
		Devices:       opt.FleetDevices,
		Seed:          opt.Seed,
		Window:        opt.Window,
		Duration:      opt.Duration,
		Workers:       opt.Workers,
		Faults:        opt.Faults,
		WorkloadShape: opt.WorkloadShape,
		ReplayRecords: opt.ReplayRecords,
	}
	if cfg.Devices <= 0 {
		cfg.Devices = defDevices
	}
	if opt.Obs != nil {
		cfg.Obs = opt.Obs.Registry()
	}
	return cfg
}

// FleetScenario runs one rack under the given placement baseline, with
// load-balancing cold migration on, and returns the fleet roll-up. The
// run is byte-identical at any Options.Workers setting.
func FleetScenario(placement fleet.PlacementKind, opt Options) fleet.Stats {
	cfg := rackConfig(opt, defaultFleetDevices)
	cfg.Placement = placement
	cfg.Migration = true
	return fleet.New(cfg).Run()
}

// cohortScenario runs a rack in cohort mode: tenants arrive on the fleet
// admission path, live an exponential session (mean Duration/3, so slots
// turn over several times), depart, and free their slots — with every
// traced tenant classified by the shared workload-type model.
func cohortScenario(opt Options) fleet.Stats {
	cfg := rackConfig(opt, defaultCohortDevices)
	cfg.Migration = true
	cfg.Lifetime = opt.Duration / 3
	cfg.TypeModel, _ = TypeModel()
	return fleet.New(cfg).Run()
}

// TierScenario runs one hybrid (tiered) rack under the given tier policy
// and returns the fleet roll-up: a fast SLC-like class on a quarter of the
// devices, a dense QLC-like class on the rest, cohort churn so slots keep
// freeing (tier moves need somewhere to go on an oversubscribed rack), and
// no load-balancing migration — promotes and demotes are the only movers,
// so the policies differ in nothing else. The run is byte-identical at any
// Options.Workers setting.
func TierScenario(tp fleet.TierPolicyKind, opt Options) fleet.Stats {
	cfg := rackConfig(opt, defaultTierDevices)
	cfg.TierPolicy = tp
	// Churn: mean session of half the run, and oversubscription of 2×
	// rack capacity, so departures keep freeing slots for tier moves.
	cfg.Lifetime = opt.Duration / 2
	cfg.Tenants = cfg.Devices*2*2 + 1
	// Tier moves start cold so the copy is cheap and the destination
	// warms from real traffic.
	cfg.PrefillFrac = -1
	return fleet.New(cfg).Run()
}

// placementRack, tierRack and cohortRack are FleetScenario, TierScenario
// and the workloads figure's steady cohortScenario through the process
// memo: the scenario renders a rack and its claims read the same roll-up.
func placementRack(p fleet.PlacementKind, opt Options) fleet.Stats {
	return memoized(&scenarioMemo, "fleet "+p.String(), opt, func() fleet.Stats { return FleetScenario(p, opt) }, cloneStats)
}

func tierRack(tp fleet.TierPolicyKind, opt Options) fleet.Stats {
	return memoized(&scenarioMemo, "tiers "+tp.String(), opt, func() fleet.Stats { return TierScenario(tp, opt) }, cloneStats)
}

func cohortRack(opt Options) fleet.Stats {
	opt.WorkloadShape = workload.ShapeSteady
	return memoized(&scenarioMemo, "cohort", opt, func() fleet.Stats { return cohortScenario(opt) }, cloneStats)
}

// cloneStats is a deep copy of st.
func cloneStats(st fleet.Stats) fleet.Stats {
	st.TypeCounts, st.Tiers = slices.Clone(st.TypeCounts), slices.Clone(st.Tiers)
	return st
}

// figureFleet renders the rack-scale scenario: every placement baseline
// over the same arrival sequence, with fleet admission and cold migration
// live, so the placement policies differ only in where tenants land.
// Output is deterministic for a given seed at any worker count.
func figureFleet(w io.Writer, opt Options) {
	fmt.Fprintf(w, "== Fleet: %d-device rack, placement baselines under admission + cold migration (seed=%d) ==\n",
		rackConfig(opt, defaultFleetDevices).Devices, opt.Seed)
	for _, p := range fleet.Placements() {
		st := placementRack(p, opt)
		fmt.Fprintf(w, "placement=%s\n", p)
		st.Render(w)
	}
}

// figureTiers renders the hybrid-rack scenario: the same arrival
// sequence on the same SLC-like/QLC-like rack under each tier policy —
// static-pin, adaptive watermark, and the learned placement head — with
// the latency-class tail summary as the comparison axis (tail latency at
// matched capacity). Output is deterministic for a given seed at any
// worker count.
func figureTiers(w io.Writer, opt Options) {
	fmt.Fprintf(w, "== Tiers: %d-device hybrid rack (SLC-like/QLC-like), promote/demote policies (seed=%d) ==\n",
		rackConfig(opt, defaultTierDevices).Devices, opt.Seed)
	var summary string
	for _, tp := range fleet.TierPolicies() {
		st := tierRack(tp, opt)
		fmt.Fprintf(w, "tier-policy=%s\n", tp)
		st.Render(w)
		summary += fmt.Sprintf(" %s=%.2fms", tp, st.LsMeanP99Ms)
	}
	fmt.Fprintf(w, "summary: ls meanP99%s\n", summary)
}
