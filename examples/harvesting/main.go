// Harvesting: drive the ghost-superblock machinery by hand — no RL — to
// see exactly what the paper's Make_Harvestable and Harvest actions do.
// Two identical collocations run over the same virtual interval: one
// isolated, one where the latency tenant lends channels every decision
// window and the batch tenant harvests them (sustained harvesting, the
// way the RL agents do it). The difference is the §3.6 mechanism's effect
// in isolation from learning.
package main

import (
	"fmt"
	"log"

	fleetio "repro"
)

// The two tenants, in AddTenant order: their rows in every Report.
const (
	lender = iota
	harvester
)

func run(lendChannels int) *fleetio.Report {
	opt := fleetio.DefaultExperimentOptions()
	opt.BlocksPerChip = 64 // room to lend: a gSB only forms above the 25% free-block floor
	s := fleetio.NewSimulator(opt)
	s.AddTenant(fleetio.TenantSpec{
		Workload: "VDI-Web", Channels: fleetio.ChannelRange(0, 8),
		SLO: 2 * fleetio.Millisecond, PrefillFrac: 0.5,
	})
	s.AddTenant(fleetio.TenantSpec{
		Workload: "TeraSort", Channels: fleetio.ChannelRange(8, 16),
		PrefillFrac: 0.5,
	})
	// No Use: the policy never acts, we issue the actions ourselves.

	// Reach GC steady state before measuring.
	s.Run(8 * fleetio.Second)
	s.ResetMetrics()

	// Like the RL agents, a manual operator renews its decisions every
	// window: harvested superblocks drain as they fill with data and get
	// recycled by the lender's GC, so sustained sharing means sustained
	// Make_Harvestable/Harvest actions.
	for i := 0; i < 24; i++ {
		if lendChannels > 0 {
			s.MakeHarvestable(lender, lendChannels)
			s.Harvest(harvester, lendChannels)
		}
		s.Run(250 * fleetio.Millisecond)
	}
	return s.Report()
}

func main() {
	log.SetFlags(0)
	log.Println("running the isolated baseline and the harvesting variant (same seed, same interval)...")
	base := run(0)
	harv := run(4)

	fmt.Printf("\n%-24s %10s %16s %14s\n", "configuration", "SSD util", "harvester MB/s", "lender P99 ms")
	fmt.Printf("%-24s %9.1f%% %16.1f %14.2f\n", "hardware-isolated",
		base.AvgUtil*100, base.Tenants[harvester].BandwidthMBps, base.Tenants[lender].P99Ms)
	fmt.Printf("%-24s %9.1f%% %16.1f %14.2f\n", "harvesting 4 channels",
		harv.AvgUtil*100, harv.Tenants[harvester].BandwidthMBps, harv.Tenants[lender].P99Ms)
	fmt.Printf("\nharvest gain: %.2fx harvester bandwidth, %.2fx lender P99\n",
		harv.Tenants[harvester].BandwidthMBps/base.Tenants[harvester].BandwidthMBps,
		harv.Tenants[lender].P99Ms/base.Tenants[lender].P99Ms)
	fmt.Println("\nEverything in §3.6/§3.7 runs under the hood: gSB creation from free-floor-")
	fmt.Println("checked channels, the gSB pool, block lending striped across chips,")
	fmt.Println("the LBA indirection in the harvester, and GC-driven lazy reclamation with")
	fmt.Println("harvested-first victim selection.")
}
