// Package fleetio is an open-source reproduction of "FleetIO: Managing
// Multi-Tenant Cloud Storage with Multi-Agent Reinforcement Learning"
// (ASPLOS 2025). It provides, in pure Go with no dependencies outside the
// standard library:
//
//   - a discrete-event open-channel SSD simulator (channels, chips, NAND
//     timing, per-channel queues) standing in for the paper's programmable
//     SSD board;
//   - a full FTL with out-of-place updates, striped write allocation, and
//     lazy greedy garbage collection that prioritizes harvested blocks;
//   - the ghost superblock (gSB) abstraction with allocation-free pooled
//     metadata, admission control for RL actions, and the vSSD
//     virtualization layer (hardware/software isolation, token buckets,
//     stride scheduling, priority scheduling);
//   - a from-scratch PPO implementation (multi-discrete actor-critic,
//     GAE, Adam) on one set of batched compute kernels (a single state
//     is a one-row batch), and the FleetIO multi-agent policy: Table 1
//     states, Table 2 actions, the Eq. 1/Eq. 2 rewards, and §3.4
//     workload-type reward fine-tuning via k-means clustering;
//   - a rack-scale fleet layer (internal/fleet): device shards under one
//     virtual clock advanced by a persistent worker pool between epoch
//     barriers, with placement baselines, slot-based fleet admission,
//     cold vSSD migration, and hybrid SLC-like/QLC-like device classes
//     with learned promote/demote placement — byte-identical at any
//     worker count;
//   - synthetic generators for the paper's nine cloud workloads — with
//     temporal overlays (diurnal harmonics, MMPP bursts) and deterministic
//     replay of recorded block traces (binary or MSR-/Alibaba-style CSV;
//     docs/WORKLOADS.md is the reference) — and an experiment harness
//     that regenerates every measured figure;
//   - an observability layer (internal/obs): per-vSSD decision tracing
//     with JSONL export, virtual-time telemetry sampling, and live
//     Prometheus-format /metrics plus pprof endpoints on every binary
//     (docs/OBSERVABILITY.md is the reference).
//
// # Quick start
//
//	import fleetio "repro"
//
//	sim := fleetio.NewSimulator(fleetio.DefaultExperimentOptions())
//	ls := sim.AddTenant(fleetio.TenantSpec{Workload: "YCSB", Channels: fleetio.ChannelRange(0, 8)})
//	bi := sim.AddTenant(fleetio.TenantSpec{Workload: "TeraSort", Channels: fleetio.ChannelRange(8, 16)})
//	sim.Use(fleetio.PolicyFleetIO)
//	report := sim.Run(10 * fleetio.Second)
//	fmt.Println(report)
//	fmt.Println(report.Tenants[ls].P99Ms, report.Tenants[bi].BandwidthMBps)
//
// The Simulator is the experiment harness's single-device run driven step
// by step — the stack every figure is measured on — so a Report carries
// the harness Result, and CompareExperiment runs whole calibrated
// policy comparisons on it.
//
// # Reproducing the paper
//
// cmd/fleetbench regenerates every figure; cmd/fleettrain pretrains the
// PPO model (fleetbench -fig 6 is the workload-clustering figure alone);
// cmd/fleetsim runs one collocation interactively; and cmd/fleettrace
// converts, inspects, and synthesizes block traces. bench_test.go renders
// every scenario once as a testing.B smoke pass; performance is measured by
// the repo benchmark (bench/run.sh, BENCHMARK.json).
// The simulator binaries accept -http to serve live /metrics and pprof
// while they run, and -workload/-trace to overlay a temporal arrival
// shape or replay a recorded trace; fleetsim additionally accepts
// -decisions to dump the decision log as JSONL.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// paper-vs-reproduction numbers.
package fleetio
