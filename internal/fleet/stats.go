package fleet

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// DeviceStats is one shard's roll-up.
type DeviceStats struct {
	Device int
	// Tenants is the occupied admission slots at collection time.
	Tenants int
	// MeanUtil is the mean per-epoch device utilization (all traffic,
	// including GC and migration copies).
	MeanUtil float64
	// BytesMoved is host payload bytes completed by the device's vSSDs.
	BytesMoved int64
	// Completed is host requests completed.
	Completed int64
}

// Stats is the fleet-wide roll-up: the tenant ledger, migration ledger,
// and aggregate throughput/utilization across every device.
type Stats struct {
	Devices int
	Epochs  int

	// Tenant ledger: Arrived = Running + Migrating + Queued + Rejected +
	// Departed, and Placed = Running + Migrating + Departed (every
	// placement is still alive or has drained out through a departure).
	Arrived   int
	Placed    int
	Running   int
	Migrating int
	Queued    int
	Rejected  int
	// Departed counts tenants whose sessions ended mid-run (cohort mode,
	// Config.Lifetime > 0); 0 otherwise.
	Departed int

	// Migration ledger: Started = Completed + InFlight.
	MigrationsStarted   int
	MigrationsCompleted int
	MigrationsInFlight  int
	// Downtime is total drain+copy virtual time charged to tenants.
	Downtime sim.Time

	// Completed is host requests finished fleet-wide.
	Completed int64
	// AggBandwidthMBps is fleet host payload throughput over the run.
	AggBandwidthMBps float64
	// AvgUtil is host bandwidth over fleet peak bandwidth for the run;
	// MinUtil/MaxUtil are the spread of per-device mean utilization.
	AvgUtil float64
	MinUtil float64
	MaxUtil float64

	// TypeCounts tallies the clusterer's workload-type labels across
	// traced tenants (Config.TypeModel set); empty otherwise.
	TypeCounts []TypeCount

	// Tiers is the per-tier roll-up, fast tier first. It, the cross-tier
	// ledger below and the latency-class tail summary are filled on a
	// hybrid rack only.
	Tiers []TierStats
	// Cross-tier migration ledger: Started splits by direction and
	// PromotesStarted+DemotesStarted = Promotes + Demotes +
	// TierMovesInFlight. Cross-tier moves are also ordinary migrations,
	// so they count in MigrationsStarted/Completed too.
	PromotesStarted   int
	DemotesStarted    int
	Promotes          int
	Demotes           int
	TierMovesInFlight int
	// CrossTierBytes is payload bytes completed promote/demote copies
	// wrote to their destinations.
	CrossTierBytes int64
	// LsTenants counts latency-class tenants alive with served I/O;
	// LsWorstP99Ms/LsMeanP99Ms summarize their whole-run P99 tail on
	// their current device, in milliseconds.
	LsTenants    int
	LsWorstP99Ms float64
	LsMeanP99Ms  float64

	PerDevice []DeviceStats
}

// TierStats is one tier's slice of the roll-up.
type TierStats struct {
	Name      string
	Devices   int
	SlotsUsed int
	Slots     int
	// MeanUtil is the tier's mean per-device utilization over the run.
	MeanUtil float64
}

// TypeCount is one workload-type label with the number of tenants the
// clusterer assigned to it.
type TypeCount struct {
	Label string
	Count int
}

// sortTypeCounts orders labels lexicographically for stable rendering.
func sortTypeCounts(tc []TypeCount) {
	sort.Slice(tc, func(i, j int) bool { return tc[i].Label < tc[j].Label })
}

// Balanced reports whether the tenant and migration ledgers close: every
// arrival is accounted for exactly once, every placement is still alive,
// and every started migration either completed or is in flight.
func (s Stats) Balanced() bool {
	return s.Arrived == s.Running+s.Migrating+s.Queued+s.Rejected+s.Departed &&
		s.Placed == s.Running+s.Migrating+s.Departed &&
		s.MigrationsStarted == s.MigrationsCompleted+s.MigrationsInFlight &&
		s.PromotesStarted+s.DemotesStarted == s.Promotes+s.Demotes+s.TierMovesInFlight &&
		s.PromotesStarted+s.DemotesStarted <= s.MigrationsStarted
}

// Render prints the roll-up as the deterministic fleet table used by
// harness's fleet figure and the determinism tests.
func (s Stats) Render(w io.Writer) {
	fmt.Fprintf(w, "devices=%d epochs=%d\n", s.Devices, s.Epochs)
	fmt.Fprintf(w, "tenants: arrived=%d placed=%d running=%d migrating=%d queued=%d rejected=%d departed=%d\n",
		s.Arrived, s.Placed, s.Running, s.Migrating, s.Queued, s.Rejected, s.Departed)
	fmt.Fprintf(w, "migrations: started=%d completed=%d inflight=%d downtime=%.1fms\n",
		s.MigrationsStarted, s.MigrationsCompleted, s.MigrationsInFlight, float64(s.Downtime)/1e6)
	if len(s.TypeCounts) > 0 {
		fmt.Fprintf(w, "types:")
		for _, tc := range s.TypeCounts {
			fmt.Fprintf(w, " %s=%d", tc.Label, tc.Count)
		}
		fmt.Fprintf(w, "\n")
	}
	if len(s.Tiers) > 0 {
		fmt.Fprintf(w, "tiers:")
		for _, ts := range s.Tiers {
			fmt.Fprintf(w, " %s[dev=%d slots=%d/%d util=%.1f%%]",
				ts.Name, ts.Devices, ts.SlotsUsed, ts.Slots, ts.MeanUtil*100)
		}
		fmt.Fprintf(w, " promotes=%d demotes=%d inflight=%d xbytes=%.1fMB\n",
			s.Promotes, s.Demotes, s.TierMovesInFlight, float64(s.CrossTierBytes)/1e6)
		fmt.Fprintf(w, "taillat: ls tenants=%d worstP99=%.2fms meanP99=%.2fms\n",
			s.LsTenants, s.LsWorstP99Ms, s.LsMeanP99Ms)
	}
	fmt.Fprintf(w, "fleet: completed=%d aggBW=%.1fMB/s avgUtil=%.1f%% devUtil min/max=%.1f%%/%.1f%%\n",
		s.Completed, s.AggBandwidthMBps, s.AvgUtil*100, s.MinUtil*100, s.MaxUtil*100)
	if !s.Balanced() {
		fmt.Fprintf(w, "!! ledger imbalance: arrived=%d running=%d migrating=%d queued=%d rejected=%d departed=%d started=%d done=%d inflight=%d\n",
			s.Arrived, s.Running, s.Migrating, s.Queued, s.Rejected, s.Departed,
			s.MigrationsStarted, s.MigrationsCompleted, s.MigrationsInFlight)
	}
}

// fleetMetrics is the fleetio_fleet_* series catalogue, refreshed by the
// control plane at every epoch boundary (single-threaded, so plain Sets).
type fleetMetrics struct {
	devices, running, queued   *obs.Metric
	rejected, placed, departed *obs.Metric
	migStarted, migDone        *obs.Metric
	migDowntime                *obs.Metric
	bandwidth                  *obs.Metric
	utilMean, utilMin, utilMax *obs.Metric
	simTime, epochs            *obs.Metric
	// Barrier health of the shard-worker pool: cumulative wall time the
	// control plane waited from its first start to the last arrival, and
	// the last epoch's straggler gap (last minus first worker arrival,
	// always 0 with one worker), and the cumulative wall time of the
	// sequential control plane.
	barrierWait, straggler, controlPlane *obs.Metric
	// tier holds the fleetio_tier_* series; nil on homogeneous racks.
	tier *tierMetrics
}

func newFleetMetrics(reg *obs.Registry) *fleetMetrics {
	return &fleetMetrics{
		devices:      reg.Gauge("fleetio_fleet_devices", "Device shards in the fleet."),
		running:      reg.Gauge("fleetio_fleet_tenants_running", "Tenants currently serving I/O."),
		queued:       reg.Gauge("fleetio_fleet_tenants_queued", "Tenants waiting for a device slot."),
		rejected:     reg.Counter("fleetio_fleet_tenants_rejected_total", "Tenants turned away by fleet admission."),
		departed:     reg.Counter("fleetio_fleet_tenants_departed_total", "Tenants whose sessions ended and drained out (cohort mode)."),
		placed:       reg.Counter("fleetio_fleet_placements_total", "Tenant placements performed."),
		migStarted:   reg.Counter("fleetio_fleet_migrations_started_total", "Cold migrations started."),
		migDone:      reg.Counter("fleetio_fleet_migrations_completed_total", "Cold migrations completed."),
		migDowntime:  reg.Counter("fleetio_fleet_migration_downtime_seconds", "Total drain+copy downtime charged to tenants."),
		bandwidth:    reg.Gauge("fleetio_fleet_bandwidth_bytes_per_second", "Fleet device throughput over the last epoch."),
		utilMean:     reg.Gauge("fleetio_fleet_util_mean", "Mean per-device utilization over the last epoch."),
		utilMin:      reg.Gauge("fleetio_fleet_util_min", "Coolest device's utilization over the last epoch."),
		utilMax:      reg.Gauge("fleetio_fleet_util_max", "Hottest device's utilization over the last epoch."),
		simTime:      reg.Gauge("fleetio_fleet_sim_time_seconds", "Fleet-wide virtual clock."),
		epochs:       reg.Counter("fleetio_fleet_epochs_total", "Synchronization epochs completed."),
		barrierWait:  reg.Counter("fleetio_fleet_barrier_wait_ns", "Cumulative wall time the control plane waited at the epoch barrier."),
		straggler:    reg.Gauge("fleetio_fleet_barrier_straggler_ns", "Last epoch's gap between the first and last shard worker arriving at the barrier."),
		controlPlane: reg.Counter("fleetio_fleet_control_plane_ns", "Cumulative wall time of the sequential control plane at epoch barriers."),
	}
}

// publishMetrics refreshes the fleetio_fleet_* series from control-plane
// state. Called only on the control-plane thread.
func (f *Fleet) publishMetrics(now sim.Time) {
	m := f.metrics
	m.devices.Set(float64(len(f.shards)))
	running, migrating := f.tally()
	m.running.Set(float64(running + migrating))
	m.queued.Set(float64(len(f.queue)))
	m.rejected.Set(float64(f.led.Rejected))
	m.departed.Set(float64(f.led.Departed))
	m.placed.Set(float64(f.led.Placed))
	m.migStarted.Set(float64(f.led.MigrationsStarted))
	m.migDone.Set(float64(f.led.MigrationsCompleted))
	m.migDowntime.Set(float64(f.led.Downtime) / 1e9)
	// Per-device utilizations times the device's peak bandwidth sum to the
	// fleet's throughput over the epoch; one multiply per tier, so a
	// homogeneous rack's product is the single one it has always been.
	var sum, bw float64
	min, max := 1e18, -1e18
	for t, tier := range f.tiers {
		used, util := 0, 0.0
		for _, sh := range tier {
			used += sh.slotsUsed
			u := sh.epochUtil
			util += u
			sum += u
			if u < min {
				min = u
			}
			if u > max {
				max = u
			}
		}
		bw += util * tier[0].peakBandwidth()
		if m.tier != nil {
			m.tier.publishTier(t, len(tier), used, util)
		}
	}
	m.utilMean.Set(sum / float64(len(f.shards)))
	m.utilMin.Set(min)
	m.utilMax.Set(max)
	// A degenerate peak (0 × Inf = NaN) publishes as 0 instead.
	if math.IsNaN(bw) || math.IsInf(bw, 0) {
		bw = 0
	}
	m.bandwidth.Set(bw)
	m.simTime.Set(float64(now) / 1e9)
	m.epochs.Set(float64(f.epochs))
	if m.tier != nil {
		_, moves := f.inFlight()
		m.tier.publishLedger(&f.led, moves)
	}
}
