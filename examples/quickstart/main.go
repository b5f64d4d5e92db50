// Quickstart: collocate a latency-sensitive YCSB tenant with a
// bandwidth-hungry TeraSort tenant on one simulated SSD, let FleetIO's RL
// agents manage harvesting and priorities, and print the outcome.
package main

import (
	"fmt"
	"log"

	fleetio "repro"
)

func main() {
	log.SetFlags(0)
	// FleetIO: one RL agent per vSSD, pretrained offline on held-out
	// workloads, fine-tuning online.
	log.Println("pretraining FleetIO agents (once per process)...")
	opt := fleetio.WithPretrainedOptions(fleetio.DefaultExperimentOptions())
	s := fleetio.NewSimulator(opt)

	// Each tenant starts hardware-isolated on half the channels, with a
	// warmed-up FTL so garbage collection is live (as in the paper's
	// experiments).
	ycsb := s.AddTenant(fleetio.TenantSpec{
		Workload:    "YCSB",
		Channels:    fleetio.ChannelRange(0, 8),
		SLO:         2 * fleetio.Millisecond,
		PrefillFrac: 0.5,
	})
	sort := s.AddTenant(fleetio.TenantSpec{
		Workload:    "TeraSort",
		Channels:    fleetio.ChannelRange(8, 16),
		PrefillFrac: 0.5,
	})
	s.Use(fleetio.PolicyFleetIO)

	log.Println("running 10 virtual seconds of collocated traffic...")
	s.Run(4 * fleetio.Second) // warmup + online adaptation
	s.ResetMetrics()
	report := s.Run(6 * fleetio.Second)

	fmt.Println()
	fmt.Println(report)
	fmt.Printf("ycsb served %d requests; terasort moved %.0f MB/s with %d harvested channel(s)\n",
		report.Tenants[ycsb].Completed, report.Tenants[sort].BandwidthMBps, report.HarvestedChls[sort])
}
