// Multitenant: reproduce the core §4.2 comparison on one workload pair —
// run Hardware Isolation, Software Isolation, and FleetIO on the same mix
// and show the utilization/tail-latency tradeoff each policy lands on.
package main

import (
	"fmt"
	"log"

	fleetio "repro"
)

func main() {
	log.SetFlags(0)
	log.Println("pretraining FleetIO agents (once per process)...")
	opt := fleetio.WithPretrainedOptions(fleetio.DefaultExperimentOptions())
	mix := fleetio.NewMix("VDI-Web+TeraSort", "VDI-Web", "TeraSort")

	log.Println("calibrating SLOs and running three policies on", mix.Label, "...")
	results := fleetio.CompareExperiment(mix, []fleetio.Policy{
		fleetio.PolicyHardwareIsolation,
		fleetio.PolicySoftwareIsolation,
		fleetio.PolicyFleetIO,
	}, opt)

	hw := results[0]
	fmt.Printf("\n%-22s %10s %12s %12s %14s\n", "policy", "util %", "util vs HW", "LS P99 ms", "BI BW MB/s")
	for _, r := range results {
		fmt.Printf("%-22s %10.1f %11.2fx %12.2f %14.1f\n",
			r.Policy, r.AvgUtil*100, r.AvgUtil/hw.AvgUtil,
			r.LatencyTenantP99(), r.BandwidthTenant())
	}
	fmt.Println("\nFleetIO should land between the extremes: most of Software Isolation's")
	fmt.Println("utilization at close to Hardware Isolation's tail latency (paper Fig. 10).")
}
