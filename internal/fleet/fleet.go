// Package fleet implements the rack-scale layer of the FleetIO
// reproduction: N flash devices, each a full engine shard (its own
// sim.Engine driving the flash/FTL/gSB/vSSD stack), coordinated under one
// fleet-wide virtual clock by barrier synchronization, with a control
// plane on top that places arriving tenants onto devices, admits or
// rejects them when the rack is saturated, and cold-migrates tenants off
// contended devices.
//
// # Shard model and clock coordination
//
// Each device shard is an independent deterministic simulation. The fleet
// advances all shards in lock-step epochs of Config.Quantum virtual time:
// shards fan out over a bounded worker pool, each runs its engine to the
// epoch boundary, and only after the barrier does the (sequential,
// deterministically ordered) control plane read shard state and mutate it
// — placing tenants, starting drains, cutting migrations over. No shard
// ever observes another mid-epoch, so cross-device behavior is a pure
// function of the seed: a fleet run is byte-identical at any worker
// count. This is bounded-lag synchronization with the lag bound equal to
// one quantum — the tightest cross-device interaction granularity.
//
// # Migration protocol
//
// Migration is cold: drain (stop the tenant's generator, wait for its
// queue and inflight pages to empty), copy (the mapped pages are read
// from the source device and written to the destination as real
// simulated I/O through the normal vSSD datapath, contending with the
// tenants already there), then cut over (trim the source mapping, free
// its slot, restart the generator against the destination vSSD). The
// whole drain+copy window is downtime charged to the tenant.
package fleet

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vssd"
	"repro/internal/workload"
)

// Config sizes and seeds a fleet run. The zero value of most fields picks
// a sensible default (see the field comments); Devices and Duration are
// required.
type Config struct {
	// Devices is the number of flash-device shards (required, >= 1 —
	// unless Classes is set, in which case it may be left 0 and is derived
	// as the class sum).
	Devices int
	// Seed derives every stream in the fleet (per-shard, per-tenant, and
	// control) via sim.RNG.Stream, so runs are seed-deterministic.
	Seed int64
	// Flash is the per-device geometry; zero value → DefaultDeviceConfig.
	// Ignored when Classes is set (each class carries its own geometry).
	Flash flash.Config

	// Classes, when set, makes the rack hybrid: each entry contributes
	// Devices shards with its own flash geometry, assigned class-contiguous
	// device ids (class 0 first). Class 0 is the fast tier by convention.
	// Unset (the default), the rack is homogeneous on Flash and every
	// tier-* field below is inert — that path is byte-identical to a
	// pre-tiering fleet.
	Classes []DeviceClass
	// TierPolicy selects the promote/demote driver on a hybrid rack.
	TierPolicy TierPolicyKind
	// TierLowWater/TierHighWater are the watermark policy's fast-tier
	// occupancy thresholds (0 → 0.60 / 0.95).
	TierLowWater  float64
	TierHighWater float64
	// TierSLO is the latency SLO stamped on latency-class tenants of a
	// hybrid rack (0 → 2 ms; negative → none). Metric-only on the
	// baseline policies; under TierLearned it also feeds each agent's
	// SLO-violation state and reward.
	TierSLO sim.Time
	// Window is the per-device decision window (0 → 100 ms).
	Window sim.Time
	// Quantum is the epoch length — the granularity of cross-device
	// actions and the shard lag bound (0 → 100 ms).
	Quantum sim.Time
	// Duration is the total simulated time (required, > 0).
	Duration sim.Time

	// Tenants is how many tenants arrive over the run (0 → 2×slots+spill).
	Tenants int
	// ArrivalEvery spaces tenant arrivals (0 → spread over 60% of the run).
	ArrivalEvery sim.Time
	// Workloads is the arrival profile cycle (empty → DefaultWorkloadCycle).
	Workloads []string
	// Placement selects the device-assignment baseline.
	Placement PlacementKind
	// SlotsPerDevice is the fleet-admission capacity of one device (0 → 2).
	SlotsPerDevice int
	// QueueLimit bounds the fleet-wide pending queue; arrivals beyond it
	// are rejected (0 → Devices/4+1).
	QueueLimit int

	// Migration enables cold vSSD migration off contended devices.
	Migration bool
	// MigrateGap is the minimum per-epoch utilization gap between the
	// hottest and coolest device before a migration starts (0 → 0.20).
	MigrateGap float64
	// MigrateAfter holds migrations back until the fleet has settled
	// (0 → 4 quanta).
	MigrateAfter sim.Time
	// MaxMigrations bounds concurrently in-flight migrations, including
	// tier promotes/demotes (0 → Devices/8+1; negative → no migrations of
	// any kind may start, the migration-free fleet).
	MaxMigrations int

	// Lifetime, when > 0, gives each placed tenant an exponentially
	// distributed session length (mean Lifetime) drawn from its private
	// stream: the cohort-churn mode, where tenants depart mid-run and
	// release their slots back to admission. 0 disables departures.
	Lifetime sim.Time
	// TypeModel, when non-nil, attaches a trace recorder to every tenant
	// and classifies each tenant's observed traffic at Collect time into
	// Stats.TypeCounts (the clusterer's workload-type view of the fleet).
	TypeModel *cluster.Model

	// PrefillFrac warms each placed tenant's logical space (0 → 0.35;
	// negative → no prefill, the cold-start fleet tiered scenarios use).
	PrefillFrac float64
	// Workers sizes the persistent shard-worker pool (0 → GOMAXPROCS,
	// 1 → inline sequential, capped at Devices). The pool is created once
	// at Run start; each worker owns a static contiguous slice of shards
	// for the whole run. Results are byte-identical at any setting.
	Workers int
	// Obs, when non-nil, receives the fleetio_fleet_* metric roll-up,
	// refreshed at every epoch boundary.
	Obs *obs.Registry
}

// DefaultDeviceConfig is the per-shard flash geometry: a quarter-size
// device (8 channels, 2 chips each) so racks of tens to hundreds of
// devices stay fast while keeping the full channel/chip/GC dynamics.
func DefaultDeviceConfig() flash.Config {
	cfg := flash.DefaultConfig()
	cfg.Channels = 8
	cfg.ChipsPerChannel = 2
	cfg.BlocksPerChip = 32
	cfg.PagesPerBlock = 64
	return cfg
}

// DefaultWorkloadCycle mixes light open-loop services with heavy
// closed-loop batch jobs so device loads diverge enough for migration to
// have work to do.
func DefaultWorkloadCycle() []string {
	return []string{"VDI-Web", "TeraSort", "YCSB", "MLPrep"}
}

// withDefaults resolves every zero field.
func (c Config) withDefaults() Config {
	if len(c.Classes) > 0 {
		// Copy before mutating: callers share class slices across runs
		// (FigureTiers builds one per policy from the same literal).
		classes := make([]DeviceClass, len(c.Classes))
		copy(classes, c.Classes)
		sum := 0
		for i := range classes {
			if classes[i].Devices <= 0 {
				panic(fmt.Sprintf("fleet: Classes[%d].Devices must be >= 1", i))
			}
			if classes[i].Flash.Channels == 0 {
				classes[i].Flash = DefaultDeviceConfig()
			}
			if classes[i].Name == "" {
				classes[i].Name = fmt.Sprintf("class%d", i)
			}
			sum += classes[i].Devices
		}
		if c.Devices != 0 && c.Devices != sum {
			panic(fmt.Sprintf("fleet: Config.Devices=%d but Classes sum to %d", c.Devices, sum))
		}
		c.Devices = sum
		c.Classes = classes
		if c.TierLowWater == 0 {
			c.TierLowWater = 0.60
		}
		if c.TierHighWater == 0 {
			c.TierHighWater = 0.95
		}
		if c.TierSLO == 0 {
			c.TierSLO = 2 * sim.Millisecond
		} else if c.TierSLO < 0 {
			c.TierSLO = 0
		}
	}
	if c.Devices <= 0 {
		panic("fleet: Config.Devices must be >= 1")
	}
	if c.Duration <= 0 {
		panic("fleet: Config.Duration must be > 0")
	}
	if c.Flash.Channels == 0 {
		c.Flash = DefaultDeviceConfig()
	}
	if c.Window <= 0 {
		c.Window = 100 * sim.Millisecond
	}
	if c.Quantum <= 0 {
		c.Quantum = 100 * sim.Millisecond
	}
	if c.SlotsPerDevice <= 0 {
		c.SlotsPerDevice = 2
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = c.Devices/4 + 1
	}
	if c.Tenants <= 0 {
		// Oversubscribe the rack so admission has queueing and rejection
		// work: capacity + half a device-count of spill.
		c.Tenants = c.Devices*c.SlotsPerDevice + c.Devices/2 + 1
	}
	if c.ArrivalEvery <= 0 {
		span := c.Duration * 6 / 10
		c.ArrivalEvery = span / sim.Time(c.Tenants)
		if c.ArrivalEvery <= 0 {
			c.ArrivalEvery = 1
		}
	}
	if len(c.Workloads) == 0 {
		c.Workloads = DefaultWorkloadCycle()
	}
	if c.MigrateGap <= 0 {
		c.MigrateGap = 0.20
	}
	if c.MigrateAfter <= 0 {
		c.MigrateAfter = 4 * c.Quantum
	}
	// Zero means "unset, pick the default"; a negative sentinel means
	// "explicitly disabled". Folding both into <= 0 made cold (no-prefill)
	// and migration-free fleets impossible to request.
	if c.MaxMigrations == 0 {
		c.MaxMigrations = c.Devices/8 + 1
	} else if c.MaxMigrations < 0 {
		c.MaxMigrations = 0
	}
	if c.PrefillFrac == 0 {
		c.PrefillFrac = 0.35
	} else if c.PrefillFrac < 0 {
		c.PrefillFrac = 0
	}
	return c
}

// TenantState tracks where a tenant is in its lifecycle.
type TenantState uint8

// Tenant lifecycle states.
const (
	// StateQueued: admitted to the fleet queue, waiting for a device slot.
	StateQueued TenantState = iota
	// StateRunning: placed and serving I/O on its device.
	StateRunning
	// StateDraining: migration started; waiting for inflight I/O to empty.
	StateDraining
	// StateCopying: drained; mapped pages copying to the destination.
	StateCopying
	// StateRejected: turned away — the rack and its queue were full.
	StateRejected
	// StateLeaving: session ended; generator stopped, draining inflight
	// I/O before the slot frees.
	StateLeaving
	// StateDeparted: drained and gone; slot released, mapping trimmed.
	StateDeparted
)

func (s TenantState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDraining:
		return "draining"
	case StateCopying:
		return "copying"
	case StateRejected:
		return "rejected"
	case StateLeaving:
		return "leaving"
	case StateDeparted:
		return "departed"
	default:
		return fmt.Sprintf("TenantState(%d)", uint8(s))
	}
}

// Tenant is one fleet tenant: a workload bound to (at most) one device at
// a time, possibly rebound by migration.
type Tenant struct {
	ID       int
	Workload string
	State    TenantState
	// Device is the current (or destination, while migrating) device;
	// -1 while queued or rejected.
	Device int
	// Migrations counts completed migrations of this tenant.
	Migrations int
	// Downtime is the total virtual time spent drained or copying.
	Downtime sim.Time

	arrival  sim.Time
	placedAt sim.Time
	// class is the workload's latency/bandwidth class, resolved once at
	// construction (tier placement and the tail-latency roll-up read it).
	class workload.Class
	// pageSize/logicalPages snapshot the tenant's device geometry at
	// placement, for classification after the tenant departs or on racks
	// where classes differ per device.
	pageSize     int
	logicalPages int64
	// departAt ends the tenant's session when Config.Lifetime is set
	// (0 = stays for the whole run).
	departAt sim.Time
	rng      *sim.RNG
	gen      *workload.Generator
	vssd     *vssd.VSSD
	// rec captures the tenant's recent traffic for workload-type
	// classification when Config.TypeModel is set. It survives migration:
	// the tenant's access stream is continuous across devices.
	rec *trace.Recorder
	// lastBytes is the TotalBytesMoved snapshot at the last epoch;
	// epochBytes is the delta over the last epoch (the migration victim
	// signal).
	lastBytes  int64
	epochBytes int64

	mig *migration // non-nil while draining/copying
}

// Fleet is a rack of device shards plus the control plane state.
type Fleet struct {
	cfg     Config
	shards  []*Shard
	tenants []*Tenant
	queue   []int // tenant IDs waiting for a slot, FIFO

	arrivals []sim.Time // arrival time per tenant ID
	nextArr  int
	rrNext   int // round-robin cursor
	ctrl     *sim.RNG

	migs []*migration

	now    sim.Time
	epochs int

	// pool is the persistent shard-worker runtime, alive between start
	// and stopWorkers; nil when shards advance inline (Workers == 1 or a
	// single device).
	pool *shardWorkers

	// counters feeding Stats
	placed, rejected    int
	departed            int
	migStarted, migDone int
	migDowntime         sim.Time
	// Cross-tier migration ledger (hybrid racks): started/completed
	// promotes (into the fast tier) and demotes (out of it), and the
	// payload bytes their completed copies wrote.
	promoStarted, demoStarted int
	promotes, demotes         int
	xTierBytes                int64
	metrics                   *fleetMetrics
}

// New builds the fleet: every shard's engine, platform, and runner, the
// arrival schedule, and (when cfg.Obs is set) the metric roll-up. No
// virtual time elapses until Run.
func New(cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	if err := cfg.Flash.Validate(); err != nil {
		panic(err)
	}
	for _, cl := range cfg.Classes {
		if err := cl.Flash.Validate(); err != nil {
			panic(err)
		}
	}
	base := sim.NewRNG(cfg.Seed)
	f := &Fleet{cfg: cfg, ctrl: base.Stream(-1)}
	f.shards = make([]*Shard, cfg.Devices)
	for i := range f.shards {
		fc, tier := cfg.shardClass(i)
		f.shards[i] = newShard(i, cfg, fc, tier, base.Stream(int64(i)))
	}
	f.arrivals = make([]sim.Time, cfg.Tenants)
	f.tenants = make([]*Tenant, cfg.Tenants)
	for i := range f.tenants {
		f.arrivals[i] = sim.Time(i+1) * cfg.ArrivalEvery
		name := cfg.Workloads[i%len(cfg.Workloads)]
		f.tenants[i] = &Tenant{
			ID:       i,
			Workload: name,
			State:    StateQueued,
			Device:   -1,
			arrival:  f.arrivals[i],
			class:    workload.ByName(name).Class,
			rng:      base.Stream(int64(1<<20 + i)),
		}
	}
	if cfg.Obs != nil {
		f.metrics = newFleetMetrics(cfg.Obs)
		if f.tiered() {
			f.metrics.tier = newTierMetrics(cfg.Obs, cfg.Classes)
		}
	}
	return f
}

// Config returns the resolved configuration (defaults filled in).
func (f *Fleet) Config() Config { return f.cfg }

// Shards returns the device shards in id order.
func (f *Fleet) Shards() []*Shard { return f.shards }

// Tenants returns every tenant in arrival order.
func (f *Fleet) Tenants() []*Tenant { return f.tenants }

// Now returns the fleet-wide virtual clock (the last epoch boundary).
func (f *Fleet) Now() sim.Time { return f.now }

// Run advances the whole fleet to cfg.Duration in quantum-sized epochs
// and returns the final roll-up. Each epoch the persistent shard workers
// run their static shard ranges to the barrier (Config.Workers sizes the
// pool, created once here), then the control plane executes sequentially;
// the result is byte-identical at any worker count. The pool is torn down
// before Run returns — no goroutine outlives it.
func (f *Fleet) Run() Stats {
	f.start()
	for f.now < f.cfg.Duration {
		f.step()
	}
	st := f.Collect()
	f.stopWorkers()
	return st
}

// start begins every shard's decision runner and brings up the persistent
// worker pool when more than one worker is useful.
func (f *Fleet) start() {
	for _, sh := range f.shards {
		sh.runner.Start()
	}
	n := f.cfg.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > len(f.shards) {
		n = len(f.shards)
	}
	if n > 1 && f.pool == nil {
		f.pool = newShardWorkers(f, n)
	}
}

// step runs one epoch: shards advance to the next quantum boundary in the
// parallel phase, then the sequential control plane acts at the barrier.
func (f *Fleet) step() {
	t := f.now + f.cfg.Quantum
	if t > f.cfg.Duration {
		t = f.cfg.Duration
	}
	f.advanceTo(t)
	f.controlPlane(t)
}

// stopWorkers joins and releases the persistent pool (no-op when inline).
func (f *Fleet) stopWorkers() {
	if f.pool != nil {
		f.pool.stop()
		f.pool = nil
	}
}

// advanceTo runs every shard's engine to the epoch boundary t and
// refreshes each shard's load signals, through the worker pool when one
// is up and inline otherwise. Every field the parallel phase touches is
// owned by exactly one shard, so the static partition cannot change any
// shard's event order or any float's operation order.
func (f *Fleet) advanceTo(t sim.Time) {
	if f.pool != nil {
		f.pool.runEpoch(t)
	} else {
		f.epochShards(0, len(f.shards), t)
	}
	f.now = t
	f.epochs++
}

// controlPlane is the sequential cross-device step at an epoch boundary:
// advance migrations, place queued tenants, take new arrivals, start new
// migrations, and publish metrics — in that fixed order, so the run is
// deterministic. (The per-device load refresh happens in the parallel
// phase, before the barrier: see epochShards.)
func (f *Fleet) controlPlane(now sim.Time) {
	f.stepMigrations(now)
	if f.cfg.Lifetime > 0 {
		f.stepDepartures(now)
	}
	// Tier moves go before the admission queue retries: a slot a departure
	// just freed can host a promote before a queued arrival claims it —
	// otherwise an oversubscribed rack starves the tier policy forever.
	if f.tiered() && now >= f.cfg.MigrateAfter {
		f.stepTiers(now)
	}

	// Queued tenants retry before new arrivals (FIFO fairness).
	remaining := f.queue[:0]
	for _, id := range f.queue {
		if !f.tryPlace(f.tenants[id], now) {
			remaining = append(remaining, id)
		}
	}
	f.queue = remaining

	for f.nextArr < len(f.arrivals) && f.arrivals[f.nextArr] <= now {
		tn := f.tenants[f.nextArr]
		f.nextArr++
		if f.tryPlace(tn, now) {
			continue
		}
		if len(f.queue) < f.cfg.QueueLimit {
			f.queue = append(f.queue, tn.ID)
		} else {
			tn.State = StateRejected
			f.rejected++
		}
	}

	if f.cfg.Migration && now >= f.cfg.MigrateAfter {
		f.maybeMigrate(now)
	}
	if f.metrics != nil {
		f.publishMetrics(now)
	}
}

// epochShards is the parallel phase of one epoch for shards [lo, hi):
// advance each shard's engine to the boundary t, then refresh its load
// signals — device utilization over the epoch and each resident tenant's
// byte delta (the migration victim signal). Every field it writes is
// owned by the shard, so the static worker partition makes it race-free
// and the per-shard float sequences identical at any worker count.
func (f *Fleet) epochShards(lo, hi int, t sim.Time) {
	for i := lo; i < hi; i++ {
		sh := f.shards[i]
		sh.eng.RunUntil(t)
		total := sh.plat.TotalBytes()
		denom := sh.peakBandwidth() * float64(f.cfg.Quantum) / 1e9
		sh.epochUtil = utilOver(total-sh.lastBytes, denom)
		sh.utilSum += sh.epochUtil
		sh.lastBytes = total
		for _, tn := range sh.resident {
			if tn.vssd != nil {
				cur := tn.vssd.TotalBytesMoved()
				tn.epochBytes = cur - tn.lastBytes
				tn.lastBytes = cur
			}
		}
	}
}

// utilOver guards the utilization ratio against a degenerate denominator:
// a zero (or NaN/Inf-poisoned) peak-bandwidth × time product would make
// the ratio ±Inf or NaN and poison every downstream consumer — the
// migration hot/cool ordering, the min/max spread, the bandwidth gauge —
// so such a device reads as idle instead.
func utilOver(deltaBytes int64, denom float64) float64 {
	if !(denom > 0) || math.IsInf(denom, 1) {
		return 0
	}
	return float64(deltaBytes) / denom
}

// tryPlace asks the placement policy for a device with a free slot.
func (f *Fleet) tryPlace(tn *Tenant, now sim.Time) bool {
	dev, ok := f.place(tn)
	if !ok {
		return false
	}
	sh := f.shards[dev]
	sh.slotsUsed++
	tn.Device = dev
	tn.State = StateRunning
	tn.placedAt = now
	// Session length and recorder are drawn/created only when the cohort
	// features are on, so legacy configs take zero extra RNG draws.
	if f.cfg.Lifetime > 0 {
		tn.departAt = now + tn.rng.ExpDuration(f.cfg.Lifetime)
	}
	if f.cfg.TypeModel != nil && tn.rec == nil {
		tn.rec = trace.NewRecorder(cluster.WindowSize)
	}
	tn.vssd = sh.addTenantVSSD(tn, f.cfg)
	tn.lastBytes = 0
	tn.gen = workloadGenerator(sh, tn)
	tn.gen.Start()
	sh.resident = append(sh.resident, tn)
	f.placed++
	return true
}

// workloadGenerator binds the tenant's profile and private RNG stream to
// its current vSSD. The stream object survives migration (the stopped
// source generator never draws again), so a tenant's access sequence is
// one continuous deterministic stream across devices.
func workloadGenerator(sh *Shard, tn *Tenant) *workload.Generator {
	g := workload.NewGenerator(sh.eng, tn.vssd, workload.ByName(tn.Workload), tn.rng)
	if tn.rec != nil {
		g.Record(tn.rec)
	}
	return g
}

// stepDepartures retires tenants whose sessions ended: a running tenant
// past its departure time stops generating (StateLeaving) and, once its
// queue and inflight are empty, releases its slot and trims its mapping —
// the same drain discipline migration uses, so a departure never abandons
// in-flight I/O. Migrating tenants defer their departure until after
// cutover (pickVictim only takes StateRunning, so a leaving tenant is
// never chosen as a migration victim).
func (f *Fleet) stepDepartures(now sim.Time) {
	for _, sh := range f.shards {
		for i := 0; i < len(sh.resident); i++ {
			tn := sh.resident[i]
			switch tn.State {
			case StateRunning:
				if tn.departAt > 0 && now >= tn.departAt {
					tn.State = StateLeaving
					tn.gen.Stop()
				}
			case StateLeaving:
				if tn.vssd.QueueLen() == 0 && tn.vssd.Inflight() == 0 {
					f.depart(sh, tn, i)
					i--
				}
			}
		}
	}
}

// depart finalizes one drained departure: trim the mapping so its blocks
// become GC-reclaimable, free the admission slot, and drop the tenant
// from the shard's resident set.
func (f *Fleet) depart(sh *Shard, tn *Tenant, i int) {
	st := tn.vssd.Tenant()
	for lpn := 0; lpn < st.LogicalPages(); lpn++ {
		st.Trim(lpn)
	}
	sh.slotsUsed--
	sh.resident = append(sh.resident[:i], sh.resident[i+1:]...)
	tn.State = StateDeparted
	tn.Device = -1
	tn.vssd = nil
	tn.gen = nil
	f.departed++
}

// Collect assembles the final Stats roll-up. It can be called after Run
// (or mid-run from the control-plane thread).
func (f *Fleet) Collect() Stats {
	s := Stats{
		Devices:             len(f.shards),
		Epochs:              f.epochs,
		Arrived:             f.nextArr,
		Placed:              f.placed,
		Queued:              len(f.queue),
		Rejected:            f.rejected,
		MigrationsStarted:   f.migStarted,
		MigrationsCompleted: f.migDone,
		MigrationsInFlight:  f.migStarted - f.migDone,
		Downtime:            f.migDowntime,
		Departed:            f.departed,
	}
	for _, tn := range f.tenants[:f.nextArr] {
		switch tn.State {
		case StateRunning, StateLeaving:
			// A leaving tenant still holds its slot until drained.
			s.Running++
		case StateDraining, StateCopying:
			s.Migrating++
		}
	}
	if f.cfg.TypeModel != nil {
		s.TypeCounts = f.classifyTenants()
	}
	s.PerDevice = make([]DeviceStats, len(f.shards))
	if f.pool != nil {
		f.pool.runCollect(s.PerDevice)
	} else {
		f.collectShards(0, len(f.shards), s.PerDevice)
	}
	// The cross-device merge stays sequential in shard-id order (and the
	// sums are integers), so the roll-up is byte-identical at any worker
	// count.
	var hostBytes int64
	for i := range s.PerDevice {
		hostBytes += s.PerDevice[i].BytesMoved
		s.Completed += s.PerDevice[i].Completed
	}
	if f.now > 0 {
		secs := float64(f.now) / 1e9
		s.AggBandwidthMBps = float64(hostBytes) / secs / 1e6
		// Hybrid racks sum per-shard peaks; the homogeneous formula stays
		// the single multiply it always was, keeping its float operation
		// order (and so the tier-off byte identity) untouched.
		var peak float64
		if f.tiered() {
			for _, sh := range f.shards {
				peak += sh.peakBandwidth()
			}
		} else {
			peak = f.shards[0].peakBandwidth() * float64(len(f.shards))
		}
		s.AvgUtil = utilOver(hostBytes, peak*secs)
	}
	if f.tiered() {
		f.collectTiers(&s)
	}
	s.MinUtil, s.MaxUtil = 1e18, -1e18
	for _, ds := range s.PerDevice {
		if ds.MeanUtil < s.MinUtil {
			s.MinUtil = ds.MeanUtil
		}
		if ds.MeanUtil > s.MaxUtil {
			s.MaxUtil = ds.MeanUtil
		}
	}
	if len(s.PerDevice) == 0 {
		s.MinUtil, s.MaxUtil = 0, 0
	}
	return s
}

// collectShards fills the per-device roll-up for shards [lo, hi): the
// embarrassingly parallel half of Collect, fanned over the worker pool.
// Each entry is written by exactly one worker; the cross-device merge in
// Collect stays sequential in shard-id order.
func (f *Fleet) collectShards(lo, hi int, per []DeviceStats) {
	for i := lo; i < hi; i++ {
		sh := f.shards[i]
		ds := DeviceStats{
			Device:  i,
			Tenants: sh.slotsUsed,
		}
		for _, v := range sh.plat.VSSDs() {
			ds.BytesMoved += v.TotalBytesMoved()
			ds.Completed += v.Completed()
		}
		if f.epochs > 0 {
			ds.MeanUtil = sh.utilSum / float64(f.epochs)
		}
		per[i] = ds
	}
}

// classifyTenants runs every traced tenant's recent window through the
// type model and tallies the resulting cluster labels (sorted by label
// for deterministic rendering). Tenants with fewer than 100 recorded
// requests are skipped — the same floor core.FleetIO.retype uses.
func (f *Fleet) classifyTenants() []TypeCount {
	counts := map[string]int{}
	for _, tn := range f.tenants[:f.nextArr] {
		if tn.rec == nil || tn.rec.Len() < 100 {
			continue
		}
		// Classify against the geometry snapshotted at the tenant's last
		// placement (identical to the rack geometry on homogeneous fleets;
		// the tenant's own class geometry on hybrid ones).
		c, known := f.cfg.TypeModel.ClassifyTrace(tn.rec.Records(), tn.pageSize, tn.logicalPages)
		counts[f.cfg.TypeModel.Label(c, known)]++
	}
	out := make([]TypeCount, 0, len(counts))
	for label, n := range counts {
		out = append(out, TypeCount{Label: label, Count: n})
	}
	sortTypeCounts(out)
	return out
}

// Shard is one device: a full single-SSD simulation owned by the fleet.
type Shard struct {
	id   int
	eng  *sim.Engine
	plat *vssd.Platform

	runner *core.Runner
	rng    *sim.RNG

	// tier is the device-class index (always 0 on homogeneous racks); fc
	// the class geometry the shard was built with.
	tier int
	fc   flash.Config
	// fio is the shard's deployed agent stack under TierLearned (nil
	// otherwise): per-vSSD PPO agents with the placement head, training
	// online. The control plane reads tier hints from it at epoch
	// barriers.
	fio *core.FleetIO

	// slotsUsed counts occupied admission slots (running tenants plus
	// reserved migration destinations).
	slotsUsed int
	resident  []*Tenant

	// Epoch-hot fields, written by the shard's owning worker every epoch
	// (epochShards). The pads keep the group on its own cache line, away
	// from the control-plane-written fields above: shards are separately
	// heap-allocated, so this is what prevents a worker's per-epoch
	// stores from contending with anything else in the struct.
	_         [cacheLine]byte
	lastBytes int64
	epochUtil float64
	utilSum   float64
	_         [cacheLine - 24]byte
}

// newShard builds one device shard on its own engine, with the class
// geometry fc (== cfg.Flash on homogeneous racks). Under TierLearned the
// shard's decision runner deploys the FleetIO agent stack instead of the
// static placeholder policy.
func newShard(id int, cfg Config, fc flash.Config, tier int, rng *sim.RNG) *Shard {
	eng := sim.NewEngine()
	pc := vssd.DefaultPlatformConfig()
	pc.Flash = fc
	plat := vssd.NewPlatform(eng, pc)
	sh := &Shard{id: id, eng: eng, plat: plat, rng: rng, tier: tier, fc: fc}
	var pol core.Policy = core.StaticPolicy{PolicyName: "fleet-device"}
	if len(cfg.Classes) > 0 && cfg.TierPolicy == TierLearned {
		// The shard RNG is otherwise never drawn from, so seeding the agent
		// stack off it costs the non-learned paths nothing.
		sh.fio = core.NewFleetIO(plat, core.FleetIOConfig{
			Train:         true,
			Seed:          rng.Int63(),
			PlacementHead: true,
			TierOccState:  true,
		})
		pol = sh.fio
	}
	sh.runner = &core.Runner{
		Plat:   plat,
		Policy: pol,
		Window: cfg.Window,
	}
	return sh
}

// ID returns the shard's device index.
func (s *Shard) ID() int { return s.id }

// Engine returns the shard's private engine.
func (s *Shard) Engine() *sim.Engine { return s.eng }

// Platform returns the shard's device platform.
func (s *Shard) Platform() *vssd.Platform { return s.plat }

// EpochUtil returns the device utilization over the last epoch.
func (s *Shard) EpochUtil() float64 { return s.epochUtil }

// SlotsUsed returns the occupied admission slots.
func (s *Shard) SlotsUsed() int { return s.slotsUsed }

// peakBandwidth is the device's aggregate channel bandwidth in bytes/s.
func (s *Shard) peakBandwidth() float64 {
	cfg := s.plat.FlashConfig()
	return cfg.ChannelBandwidth() * float64(cfg.Channels)
}

// slotLogicalPagesFor is one admission slot's logical capacity on a
// device with geometry fc: the non-overprovisioned space divided by the
// slot count, with one slot of headroom so migration copies and dead
// pre-trim data cannot wedge GC. On a hybrid rack a fast-tier slot is
// smaller than a dense-tier slot — a promote clamps its copy to the
// destination's capacity, like any migration.
func slotLogicalPagesFor(fc flash.Config, slotsPerDevice int) int {
	total := fc.TotalBlocks() * fc.PagesPerBlock
	return int(float64(total) * 0.8 / float64(slotsPerDevice+1))
}

// slotLogicalPages is slotLogicalPagesFor on the homogeneous geometry.
func slotLogicalPages(cfg Config) int {
	return slotLogicalPagesFor(cfg.Flash, cfg.SlotsPerDevice)
}

// addTenantVSSD creates the tenant's vSSD on this shard (software-isolated
// across all channels — fleet admission slots, not channel partitions, are
// the capacity unit) and best-effort prefills it. Prefill maps pages
// directly, with no simulated I/O, exactly like the single-device harness;
// migrated tenants skip it because the copy writes are their prefill.
func (s *Shard) addTenantVSSD(tn *Tenant, cfg Config) *vssd.VSSD {
	prof := workload.ByName(tn.Workload)
	chans := make([]int, s.fc.Channels)
	for i := range chans {
		chans[i] = i
	}
	v := s.plat.AddVSSD(vssd.Config{
		Name:             fmt.Sprintf("t%d-%s-m%d", tn.ID, tn.Workload, tn.Migrations),
		Isolation:        vssd.SoftwareIsolated,
		Channels:         chans,
		LogicalPages:     slotLogicalPagesFor(s.fc, cfg.SlotsPerDevice),
		MaxInflightPages: prof.MaxInflightPages,
	})
	tn.pageSize = s.fc.PageSize
	tn.logicalPages = int64(v.Tenant().LogicalPages())
	if len(cfg.Classes) > 0 {
		if cfg.TierSLO > 0 && tn.class == workload.Latency {
			v.SetSLO(cfg.TierSLO)
		}
		if s.fio != nil {
			// The platform only ever appends vSSDs, so syncing here keeps
			// agent i == vSSD i before the next decision window fires.
			s.fio.SyncAgents()
			// α follows the workload class, mirroring the paper's per-type
			// reward: latency-class tenants carry the isolation term (and
			// emit's SLO-escalation guardrail), bandwidth-class tenants get
			// α=0, which also caps their priority at medium.
			alpha := 0.0
			if tn.class == workload.Latency {
				alpha = core.AlphaLC1
			}
			s.fio.SetAlpha(v.ID(), alpha)
		}
	}
	if tn.Migrations == 0 {
		prefill(v, cfg.PrefillFrac, tn.rng)
	}
	return v
}

// prefill maps frac of the vSSD's logical space without simulated I/O.
// Unlike ftl.Tenant.Prefill it never drains the engine (the shard may
// already be mid-run with live generators), so it stops early instead of
// stalling when allocation fails.
func prefill(v *vssd.VSSD, frac float64, rng *sim.RNG) {
	t := v.Tenant()
	n := int(float64(t.LogicalPages()) * frac)
	for lpn := 0; lpn < n; lpn++ {
		if _, ok := t.AllocatePage(lpn, false); !ok {
			return
		}
	}
	if n <= 0 {
		return
	}
	for i := 0; i < n/5; i++ {
		if _, ok := t.AllocatePage(rng.Intn(n), false); !ok {
			return
		}
	}
}
