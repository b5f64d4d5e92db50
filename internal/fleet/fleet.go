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
// advances all shards in lock-step epochs of one quantum of virtual time:
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
	"cmp"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vssd"
	"repro/internal/workload"
)

// Config sizes and seeds a fleet run. The zero value of most fields picks
// a sensible default (see the field comments); Duration and Devices are
// required.
type Config struct {
	// Devices is the number of flash-device shards (required: >= 1, and
	// >= 2 on a hybrid rack).
	Devices int
	// Seed derives every stream in the fleet (per-shard, per-tenant, and
	// control) via sim.RNG.Stream, so runs are seed-deterministic.
	Seed int64
	// Flash is the per-device geometry; zero value → defaultDeviceConfig.
	// On a hybrid rack each tier's geometry derives from it (tierFlash).
	Flash flash.Config
	// TierPolicy, when set, makes the rack hybrid and drives promote/demote
	// between its tiers: the first max(Devices/4, 1) devices are a fast
	// SLC-like tier, the rest a dense QLC-like one. TierNone (the zero
	// value) is a homogeneous rack with no tier control plane.
	TierPolicy TierPolicyKind
	// Window is the per-device decision window (0 → 100 ms).
	Window sim.Time
	// quantum is the epoch length — the granularity of cross-device
	// actions and the shard lag bound (0 → 100 ms). Only in-package tests
	// set it.
	quantum sim.Time
	// Duration is the total simulated time (required, > 0).
	Duration sim.Time

	// Tenants is how many tenants arrive over the run (0 → 2×slots+spill).
	// Their workloads cycle through VDI-Web, TeraSort, YCSB and MLPrep.
	Tenants int
	// arrivalEvery spaces tenant arrivals (0 → spread over 60% of the run).
	// Only in-package tests set it.
	arrivalEvery sim.Time
	// Placement selects the device-assignment baseline.
	Placement PlacementKind

	// Migration enables cold vSSD migration off contended devices.
	Migration bool

	// Lifetime, when > 0, gives each placed tenant an exponentially
	// distributed session length (mean Lifetime) drawn from its private
	// stream: the cohort-churn mode, where tenants depart mid-run and
	// release their slots back to admission. 0 disables departures.
	Lifetime sim.Time
	// TypeModel, when non-nil, attaches a trace recorder to every tenant
	// and classifies each tenant's observed traffic at the end of Run into
	// Stats.TypeCounts (the clusterer's workload-type view of the fleet).
	TypeModel *cluster.Model

	// PrefillFrac warms each placed tenant's logical space (0 → 0.35;
	// negative → no prefill, the cold-start fleet tiered scenarios use; at
	// most 1).
	PrefillFrac float64
	// Workers sizes the shard-worker pool (0 → GOMAXPROCS, capped at
	// Devices; 1 is a pool of one). The pool is created once at Run start;
	// each worker advances its contiguous home range of shards every epoch
	// and then steals from the back of the others'. Results are
	// byte-identical at any setting.
	Workers int
	// Obs, when non-nil, receives the fleetio_fleet_* metric roll-up,
	// refreshed at every epoch boundary.
	Obs *obs.Registry

	// Faults, when non-nil and enabled, installs a NAND fault injector on
	// every shard, each seeded from its own stream of Faults.Seed (0 →
	// Seed). Learned tier agents then also see the per-tenant write-retry
	// rate.
	Faults *fault.Config
	// WorkloadShape overlays a temporal arrival shape on every tenant, each
	// with its own shape seed; a migrated tenant keeps its shaped profile.
	WorkloadShape workload.Shape
	// ReplayRecords, when non-empty, is the trace every ShapeReplay tenant
	// replays; empty means each replays a trace synthesized from its own
	// profile.
	ReplayRecords []trace.Record
}

// Stream keys, one range per use (a shard's stream is keyed by its id
// alone), so no two streams of a rack share a key.
const (
	tenantStream = 1 << 20 // + tenant id: the tenant's private stream
	faultStream  = 2 << 20 // + shard id: the shard's fault-injector seed
	shapeStream  = 3 << 20 // + tenant id: the tenant's shape seed
)

// The control plane's fixed parameters. No caller ever needed a different
// value, so they are constants rather than Config fields.
const (
	// slotsPerDevice is the fleet-admission capacity of one device.
	slotsPerDevice = 2
	// migrateGap is the minimum per-epoch utilization gap between the
	// hottest and coolest device before a load-balancing migration starts.
	migrateGap = 0.20
	// settleQuanta is how many epochs the rack, and each tenant on a new
	// device, settles before any migration may involve it.
	settleQuanta = 4
	// tierLowWater/tierHighWater are the watermark policy's fast-tier
	// occupancy thresholds.
	tierLowWater  = 0.60
	tierHighWater = 0.95
	// tierSLO is the latency SLO stamped on latency-class tenants of a
	// hybrid rack. Metric-only on the baseline policies; under TierLearned
	// it also feeds each agent's SLO-violation state and reward.
	tierSLO = 2 * sim.Millisecond
)

// queueLimit bounds the fleet-wide pending queue; arrivals beyond it are
// rejected.
func (c Config) queueLimit() int { return c.Devices/4 + 1 }

// maxMigrations bounds concurrently in-flight migrations, including tier
// promotes/demotes.
func (c Config) maxMigrations() int { return c.Devices/8 + 1 }

// settle is the hold-off before migrations of any kind: for the rack from
// the start of the run, and for each tenant from its last placement.
func (c Config) settle() sim.Time { return settleQuanta * c.quantum }

// tiered reports whether the rack is hybrid (fast and dense tiers).
func (c Config) tiered() bool { return c.TierPolicy != TierNone }

// defaultDeviceConfig is the per-shard flash geometry: a quarter-size
// device (8 channels, 2 chips each) so racks of tens to hundreds of
// devices stay fast while keeping the full channel/chip/GC dynamics.
func defaultDeviceConfig() flash.Config {
	cfg := flash.DefaultConfig()
	cfg.Channels = 8
	cfg.ChipsPerChannel = 2
	cfg.BlocksPerChip = 32
	cfg.PagesPerBlock = 64
	return cfg
}

// defaultWorkloadCycle mixes light open-loop services with heavy
// closed-loop batch jobs so device loads diverge enough for migration to
// have work to do.
func defaultWorkloadCycle() []string {
	return []string{"VDI-Web", "TeraSort", "YCSB", "MLPrep"}
}

// withDefaults resolves every zero field and rejects a rack it cannot
// build.
func (c Config) withDefaults() Config {
	if c.Duration <= 0 {
		panic("fleet: Config.Duration must be > 0")
	}
	if !(c.PrefillFrac <= 1) { // NaN included
		panic(fmt.Sprintf("fleet: Config.PrefillFrac=%g must be <= 1", c.PrefillFrac))
	}
	if c.Devices < 1 || c.tiered() && c.Devices < 2 {
		// A hybrid rack needs a device in each tier.
		panic(fmt.Sprintf("fleet: Config.Devices=%d must be >= 1, and >= 2 under a tier policy", c.Devices))
	}
	if c.Flash.Channels == 0 {
		c.Flash = defaultDeviceConfig()
	}
	if err := c.Flash.Validate(); err != nil {
		panic(err)
	}
	if c.Window <= 0 {
		c.Window = 100 * sim.Millisecond
	}
	if c.quantum <= 0 {
		c.quantum = 100 * sim.Millisecond
	}
	if c.Tenants <= 0 {
		// Oversubscribe the rack so admission has queueing and rejection
		// work: capacity + half a device-count of spill.
		c.Tenants = c.Devices*slotsPerDevice + c.Devices/2 + 1
	}
	if c.arrivalEvery <= 0 {
		span := c.Duration * 6 / 10
		c.arrivalEvery = span / sim.Time(c.Tenants)
		if c.arrivalEvery <= 0 {
			c.arrivalEvery = 1
		}
	}
	// Zero means "unset, pick the default"; a negative sentinel means
	// "explicitly disabled". Folding both into <= 0 made cold (no-prefill)
	// fleets impossible to request.
	if c.PrefillFrac == 0 {
		c.PrefillFrac = 0.35
	} else if c.PrefillFrac < 0 {
		c.PrefillFrac = 0
	}
	return c
}

// tenantState tracks where a tenant is in its lifecycle.
type tenantState uint8

// Tenant lifecycle states.
const (
	// stateQueued: admitted to the fleet queue, waiting for a device slot.
	stateQueued tenantState = iota
	// stateRunning: placed and serving I/O on its device.
	stateRunning
	// stateDraining: migration started; waiting for inflight I/O to empty.
	stateDraining
	// stateCopying: drained; mapped pages copying to the destination.
	stateCopying
	// stateRejected: turned away — the rack and its queue were full.
	stateRejected
	// stateLeaving: session ended; generator stopped, draining inflight
	// I/O before the slot frees.
	stateLeaving
	// stateDeparted: drained and gone; slot released, mapping trimmed.
	stateDeparted
)

func (s tenantState) String() string {
	switch s {
	case stateQueued:
		return "queued"
	case stateRunning:
		return "running"
	case stateDraining:
		return "draining"
	case stateCopying:
		return "copying"
	case stateRejected:
		return "rejected"
	case stateLeaving:
		return "leaving"
	case stateDeparted:
		return "departed"
	default:
		return fmt.Sprintf("TenantState(%d)", uint8(s))
	}
}

// Tenant is one fleet tenant: a workload bound to (at most) one device at
// a time, possibly rebound by migration.
type Tenant struct {
	id       int
	Workload string
	state    tenantState
	// device is the current (or destination, while migrating) device;
	// -1 while queued or rejected.
	device int
	// migrations counts completed migrations of this tenant.
	migrations int

	arrival  sim.Time
	placedAt sim.Time
	// prof is the workload's profile under Config.WorkloadShape, shaped
	// once at construction: every generator the tenant gets, on any
	// device, drives it, and its Class is the tenant's latency/bandwidth
	// class (tier placement and the tail-latency roll-up read it).
	prof workload.Profile
	// pageSize/logicalPages snapshot the tenant's device geometry at
	// placement, for classification after the tenant departs or on hybrid
	// racks, where geometry differs per tier.
	pageSize     int
	logicalPages int64
	// departAt ends the tenant's session when Config.Lifetime is set
	// (0 = stays for the whole run).
	departAt sim.Time
	// rng is the tenant's private stream: its session length, its prefill
	// and its traffic draw from it, in that order. It survives migration
	// (the stopped source generator never draws again), so a tenant's
	// access sequence is one continuous deterministic stream across devices.
	rng  *sim.RNG
	gen  *workload.Generator
	vssd *vssd.VSSD
	// rec captures the tenant's recent traffic for workload-type
	// classification when Config.TypeModel is set. It survives migration:
	// the tenant's access stream is continuous across devices. depart types
	// the tenant into typeLabel and drops it.
	rec       *trace.Recorder
	typeLabel string
	// lastBytes is the TotalBytesMoved snapshot at the last epoch;
	// epochBytes is the delta over the last epoch (the migration victim
	// signal).
	lastBytes  int64
	epochBytes int64
}

// Fleet is a rack of device shards plus the control plane state.
type Fleet struct {
	cfg    Config
	shards []*Shard
	// tiers is shards cut by tier, fast tier first; a homogeneous rack has
	// the one entry.
	tiers   [][]*Shard
	tenants []*Tenant
	queue   []int // tenant IDs waiting for a slot, FIFO

	nextArr int // next tenant (in ID order) yet to arrive
	rrNext  int // round-robin cursor
	// lsSLO is the SLO stamped on latency-class tenants (hybrid racks
	// only; 0 → none).
	lsSLO sim.Time

	migs []*migration

	now    sim.Time
	epochs int

	// pool is the shard-worker pool, alive between start and stopWorkers.
	pool *shardWorkers

	// led holds the roll-up's event counts — placements, rejections,
	// departures, the migration and cross-tier ledgers — counted as they
	// happen; collect fills in the rest of Stats around a copy of it.
	led     Stats
	metrics *fleetMetrics
}

// New builds the fleet: every shard's engine, platform, and runner, the
// arrival schedule, and (when cfg.Obs is set) the metric roll-up. No
// virtual time elapses until Run.
func New(cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	base := sim.NewRNG(cfg.Seed)
	f := &Fleet{cfg: cfg}
	if cfg.Obs != nil {
		f.metrics = newFleetMetrics(cfg.Obs)
	}
	// What only a hybrid rack has: an SLO on its latency-class tenants, the
	// agent stacks of the learned policy, and the fleetio_tier_* series
	// (feature-gated series never appear on runs that cannot move them).
	learned := false
	if cfg.tiered() {
		f.lsSLO = tierSLO
		learned = cfg.TierPolicy == TierLearned
		if f.metrics != nil {
			f.metrics.tier = newTierMetrics(cfg.Obs)
		}
	}
	f.shards = make([]*Shard, cfg.Devices)
	for id := range f.shards {
		fc, tier := cfg.Flash, 0
		if cfg.tiered() {
			tier = min(id/cfg.fastDevices(), 1)
			fc = tierFlash(fc, tier)
		}
		f.shards[id] = newShard(cfg, id, fc, tier, learned, base.Stream(int64(id)))
	}
	f.tiers = [][]*Shard{f.shards}
	if cfg.tiered() {
		fast := cfg.fastDevices()
		f.tiers = [][]*Shard{f.shards[:fast], f.shards[fast:]}
	}
	cycle := defaultWorkloadCycle()
	f.tenants = make([]*Tenant, cfg.Tenants)
	for i := range f.tenants {
		name := cycle[i%len(cycle)]
		prof := workload.ByName(name)
		if cfg.WorkloadShape != workload.ShapeSteady {
			prof = workload.ApplyShape(prof, cfg.WorkloadShape, base.Stream(int64(shapeStream+i)).Int63(), cfg.ReplayRecords)
		}
		f.tenants[i] = &Tenant{
			id:       i,
			Workload: name,
			state:    stateQueued,
			device:   -1,
			arrival:  sim.Time(i+1) * cfg.arrivalEvery,
			prof:     prof,
			rng:      base.Stream(int64(tenantStream + i)),
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

// Run advances the whole fleet to cfg.Duration in quantum-sized epochs
// and returns the final roll-up. Each epoch the persistent shard workers
// run every shard to the barrier (Config.Workers sizes the pool, created
// once here), then the control plane executes sequentially; the result is
// byte-identical at any worker count. The pool is torn down before Run
// returns — no goroutine outlives it.
func (f *Fleet) Run() Stats {
	f.start()
	for f.now < f.cfg.Duration {
		f.step()
	}
	// No epoch follows the last barrier to build what it placed.
	for _, sh := range f.shards {
		f.buildQueued(sh)
	}
	st := f.collect()
	f.stopWorkers()
	return st
}

// start begins every shard's decision runner and brings up the worker pool.
func (f *Fleet) start() {
	for _, sh := range f.shards {
		sh.dev.Start()
	}
	n := f.cfg.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	f.pool = newShardWorkers(f, min(n, len(f.shards)))
}

// step runs one epoch. In the parallel phase the pool builds the tenants
// the last barrier placed, runs every shard's engine to the next quantum
// boundary and refreshes its load signals: every field that phase touches
// is owned by exactly one shard, so which worker claims a shard cannot
// change any shard's event order or any float's operation order. Then the
// sequential control plane acts at the barrier.
func (f *Fleet) step() {
	t := min(f.now+f.cfg.quantum, f.cfg.Duration)
	f.pool.runEpoch(epoch{from: f.now, to: t})
	f.now = t
	f.epochs++
	t0 := time.Now()
	f.controlPlane(t)
	if m := f.metrics; m != nil {
		m.controlPlane.Add(float64(time.Since(t0)))
	}
}

// stopWorkers joins and releases the pool.
func (f *Fleet) stopWorkers() {
	f.pool.stop()
	f.pool = nil
}

// controlPlane is the sequential cross-device step at an epoch boundary:
// advance migrations, place queued tenants, take new arrivals, start new
// migrations, and publish metrics — in that fixed order, so the run is
// deterministic. (The per-device load refresh happens in the parallel
// phase, before the barrier: see epochShard.)
func (f *Fleet) controlPlane(now sim.Time) {
	f.stepMigrations(now)
	if f.cfg.Lifetime > 0 {
		f.stepDepartures(now)
	}
	// Tier moves go before the admission queue retries: a slot a departure
	// just freed can host a promote before a queued arrival claims it —
	// otherwise an oversubscribed rack starves the tier policy forever.
	settled := now >= f.cfg.settle()
	if f.cfg.tiered() && settled {
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

	for f.nextArr < len(f.tenants) && f.tenants[f.nextArr].arrival <= now {
		tn := f.tenants[f.nextArr]
		f.nextArr++
		if f.tryPlace(tn, now) {
			continue
		}
		if len(f.queue) < f.cfg.queueLimit() {
			f.queue = append(f.queue, tn.id)
		} else {
			tn.state = stateRejected
			f.led.Rejected++
		}
	}

	if f.cfg.Migration && settled {
		f.maybeMigrate(now)
	}
	if f.metrics != nil {
		f.publishMetrics(now)
	}
}

// epochShard is the parallel phase of one epoch for one shard: build the
// tenants the last barrier placed on it, advance its engine to the
// boundary, then refresh its load signals — device utilization over the
// epoch's actual length (the last epoch of a run may be short) and each
// resident tenant's byte delta (the migration victim signal). Every field
// it writes is owned by the shard, so it is race-free and its float
// sequences are identical whichever worker claims the shard.
func (f *Fleet) epochShard(sh *Shard, e epoch) {
	f.buildQueued(sh)
	sh.dev.Advance(e.to)
	total := sh.Platform().TotalBytes()
	denom := sh.peakBandwidth() * float64(e.to-e.from) / 1e9
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

// buildQueued builds, in placement order, the tenants the control plane
// placed on sh at the last barrier: each one's vSSD (prefill, agent sync
// and α included) and its generator. It runs before the shard's engine
// advances, at the barrier's virtual time, so the engine sees the calls
// the barrier would have made. Nothing on the control plane reads a
// tenant's vSSD or generator before its first epoch: victim skips a tenant
// until it settles.
func (f *Fleet) buildQueued(sh *Shard) {
	for _, tn := range sh.queued {
		tn.vssd = f.addTenantVSSD(sh, tn)
		tn.gen = sh.dev.Drive(tn.vssd.ID(), tn.prof, tn.rng, tn.rec)
	}
	sh.queued = sh.queued[:0]
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

// tryPlace asks the placement policy for a device with a free slot. It
// makes the decision and writes the ledger; the device half (vSSD and
// generator) is queued on the shard for its next epoch (buildQueued), so
// the prefill runs in the parallel phase.
func (f *Fleet) tryPlace(tn *Tenant, now sim.Time) bool {
	dev, ok := f.place(tn)
	if !ok {
		return false
	}
	sh := f.shards[dev]
	sh.slotsUsed++
	tn.device = dev
	tn.state = stateRunning
	tn.placedAt = now
	// Session length and recorder are drawn/created only when the cohort
	// features are on, so legacy configs take zero extra RNG draws.
	if f.cfg.Lifetime > 0 {
		tn.departAt = now + tn.rng.ExpDuration(f.cfg.Lifetime)
	}
	if f.cfg.TypeModel != nil && tn.rec == nil {
		tn.rec = trace.NewRecorder(cluster.WindowSize)
	}
	tn.lastBytes = 0
	sh.queued = append(sh.queued, tn)
	sh.resident = append(sh.resident, tn)
	f.led.Placed++
	return true
}

// stepDepartures retires tenants whose sessions ended: a running tenant
// past its departure time stops generating (stateLeaving) and, once its
// queue and inflight are empty, releases its slot and trims its mapping —
// the same drain discipline migration uses, so a departure never abandons
// in-flight I/O. Migrating tenants defer their departure until after
// cutover (victim only takes stateRunning, so a leaving tenant is never
// chosen as a migration victim).
func (f *Fleet) stepDepartures(now sim.Time) {
	for _, sh := range f.shards {
		for i := 0; i < len(sh.resident); i++ {
			tn := sh.resident[i]
			switch tn.state {
			case stateRunning:
				if tn.departAt > 0 && now >= tn.departAt {
					tn.state = stateLeaving
					tn.gen.Stop()
				}
			case stateLeaving:
				if tn.vssd.QueueLen() == 0 && tn.vssd.Inflight() == 0 {
					f.depart(sh, tn)
					i--
				}
			}
		}
	}
}

// depart finalizes one drained departure. The tenant's traffic is over, so
// it is typed now: classifyTenants keeps the label, and the recorder goes
// with the stopped generator's reference to it.
func (f *Fleet) depart(sh *Shard, tn *Tenant) {
	sh.release(tn)
	tn.state = stateDeparted
	tn.device = -1
	tn.vssd = nil
	tn.typeLabel = f.typeOf(tn)
	tn.gen.Record(nil)
	tn.gen = nil
	tn.rec = nil
	f.led.Departed++
}

// release ends a tenant's stay on the shard, by departure or by migration
// cutover: trim its mapping here so the blocks become GC-reclaimable, free
// the admission slot, and drop it from the resident set.
func (s *Shard) release(tn *Tenant) {
	st := tn.vssd.Tenant()
	for lpn := 0; lpn < st.LogicalPages(); lpn++ {
		st.Trim(lpn)
	}
	s.slotsUsed--
	for i, r := range s.resident {
		if r == tn {
			s.resident = append(s.resident[:i], s.resident[i+1:]...)
			break
		}
	}
}

// tally counts the arrived tenants holding a slot: running (a leaving
// tenant still holds its slot until drained) and mid-migration.
func (f *Fleet) tally() (running, migrating int) {
	for _, tn := range f.tenants[:f.nextArr] {
		switch tn.state {
		case stateRunning, stateLeaving:
			running++
		case stateDraining, stateCopying:
			migrating++
		}
	}
	return running, migrating
}

// inFlight counts the migrations in flight, and the tier moves among them,
// from the live list, not from the ledger's counters: a migration lost
// from the list unbalances the ledger.
func (f *Fleet) inFlight() (migrations, tierMoves int) {
	for _, m := range f.migs {
		if m.tierMove != 0 {
			tierMoves++
		}
	}
	return len(f.migs), tierMoves
}

// collect assembles the final Stats roll-up on the control-plane thread.
// Every sum is taken in shard-id order (and the cross-device ones are
// integers), so the roll-up is byte-identical at any worker count.
func (f *Fleet) collect() Stats {
	s := f.led
	s.Devices = len(f.shards)
	s.Epochs = f.epochs
	s.Arrived = f.nextArr
	s.Queued = len(f.queue)
	s.MigrationsInFlight, s.TierMovesInFlight = f.inFlight()
	s.Running, s.Migrating = f.tally()
	if f.cfg.TypeModel != nil {
		s.TypeCounts = f.classifyTenants()
	}
	s.PerDevice = make([]DeviceStats, len(f.shards))
	var hostBytes int64
	s.MinUtil, s.MaxUtil = 1e18, -1e18
	for i, sh := range f.shards {
		ds := DeviceStats{Device: i, Tenants: sh.slotsUsed}
		for _, v := range sh.Platform().VSSDs() {
			ds.BytesMoved += v.TotalBytesMoved()
			ds.Completed += v.Completed()
		}
		if f.epochs > 0 {
			ds.MeanUtil = sh.utilSum / float64(f.epochs)
		}
		s.PerDevice[i] = ds
		hostBytes += ds.BytesMoved
		s.Completed += ds.Completed
		s.MinUtil = math.Min(s.MinUtil, ds.MeanUtil)
		s.MaxUtil = math.Max(s.MaxUtil, ds.MeanUtil)
	}
	if f.now > 0 {
		secs := float64(f.now) / 1e9
		s.AggBandwidthMBps = float64(hostBytes) / secs / 1e6
		// One multiply per tier, so a homogeneous rack's peak is the single
		// product (device peak × device count) it has always been.
		var peak float64
		for _, tier := range f.tiers {
			peak += tier[0].peakBandwidth() * float64(len(tier))
		}
		s.AvgUtil = utilOver(hostBytes, peak*secs)
	}
	if f.cfg.tiered() {
		f.collectTiers(&s)
	}
	s.Invariants = s.ledgerInvariants()
	for _, sh := range f.shards {
		s.Invariants = foldInvariants(s.Invariants, sh.dev.Invariants())
	}
	return s
}

// classifyTenants tallies the type label of every arrived tenant — a
// departed one's from depart, every other traced one's from its recent
// window now — sorted by label for deterministic rendering. Untraced
// tenants and those under the typing floor are skipped.
func (f *Fleet) classifyTenants() []TypeCount {
	counts := map[string]int{}
	for _, tn := range f.tenants[:f.nextArr] {
		label := tn.typeLabel
		if tn.state != stateDeparted {
			label = f.typeOf(tn)
		}
		if label != "" {
			counts[label]++
		}
	}
	out := make([]TypeCount, 0, len(counts))
	for label, n := range counts {
		out = append(out, TypeCount{Label: label, Count: n})
	}
	sortTypeCounts(out)
	return out
}

// typeOf labels tn's recorded window with the type model: "" when the rack
// does not type or the window is under the typing floor. It classifies
// against the geometry snapshotted at the tenant's last placement
// (identical to the rack geometry on homogeneous fleets; the tenant's own
// tier geometry on hybrid ones).
func (f *Fleet) typeOf(tn *Tenant) string {
	if f.cfg.TypeModel == nil {
		return ""
	}
	c, known, ok := f.cfg.TypeModel.ClassifyRecorder(tn.rec, tn.pageSize, tn.logicalPages)
	if !ok {
		return ""
	}
	return f.cfg.TypeModel.Label(c, known)
}

// Shard is one device of the rack — the same device.Device a
// single-device run is — plus the control plane's state about it.
type Shard struct {
	dev *device.Device

	// tier is the tier index: 0 fast, 1 dense (always 0 on homogeneous
	// racks).
	tier int
	// fio is the shard's deployed agent stack under TierLearned (nil
	// otherwise): per-vSSD PPO agents with the placement head, training
	// online. The control plane reads tier hints from it at epoch
	// barriers.
	fio *core.FleetIO

	// slotsUsed counts occupied admission slots (running tenants plus
	// reserved migration destinations).
	slotsUsed int
	resident  []*Tenant
	// queued holds the tenants placed here at the last barrier, built by
	// the shard's worker at the start of the next epoch (buildQueued).
	queued []*Tenant

	// Load signals, written by the shard's worker every epoch (epochShard).
	lastBytes int64
	epochUtil float64
	utilSum   float64
}

// newShard builds shard id on its own engine, with the tier geometry fc
// and, when cfg injects faults, its own fault injector. On a learned rack
// the shard's decision runner deploys the FleetIO agent stack instead of
// the static placeholder policy.
func newShard(cfg Config, id int, fc flash.Config, tier int, learned bool, rng *sim.RNG) *Shard {
	var faults *fault.Config
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		shard := *cfg.Faults
		shard.Seed = sim.NewRNG(cmp.Or(shard.Seed, cfg.Seed)).Stream(int64(faultStream + id)).Int63()
		faults = &shard
	}
	sh := &Shard{dev: device.New(fc, nil, faults), tier: tier}
	var pol core.Policy = core.StaticPolicy{PolicyName: "fleet-device"}
	if learned {
		// The shard RNG is otherwise never drawn from, so seeding the agent
		// stack off it costs the non-learned paths nothing. The agents are
		// never pretrained, so under faults they see the write-retry rate.
		sh.fio = core.NewFleetIO(sh.Platform(), core.FleetIOConfig{Train: true, Seed: rng.Int63(), Tiered: true})
		pol = sh.fio
	}
	sh.dev.Attach(pol, nil, cfg.Window)
	return sh
}

// Engine returns the shard's private engine.
func (s *Shard) Engine() *sim.Engine { return s.Platform().Engine() }

// Platform returns the shard's device platform.
func (s *Shard) Platform() *vssd.Platform { return s.dev.Platform() }

// peakBandwidth is the device's aggregate channel bandwidth in bytes/s.
func (s *Shard) peakBandwidth() float64 {
	return s.Platform().FlashConfig().PeakBandwidth()
}

// slotLogicalPages is one admission slot's logical capacity on a device
// with geometry fc: the non-overprovisioned space divided by the slot
// count, with one slot of headroom so migration copies and dead pre-trim
// data cannot wedge GC. On a hybrid rack a fast-tier slot is smaller than
// a dense-tier slot — a promote clamps its copy to the destination's
// capacity, like any migration.
func slotLogicalPages(fc flash.Config) int {
	total := fc.TotalBlocks() * fc.PagesPerBlock
	return int(float64(total) * 0.8 / float64(slotsPerDevice+1))
}

// addTenantVSSD creates the tenant's vSSD on shard s: software-isolated
// across all channels (fleet admission slots, not channel partitions, are
// the capacity unit), with the hybrid rack's SLO on a latency-class tenant.
// A placed tenant's FTL is prefilled; a migration target's is not, because
// the copy writes are its prefill.
func (f *Fleet) addTenantVSSD(s *Shard, tn *Tenant) *vssd.VSSD {
	fc := s.Platform().FlashConfig()
	spec := device.Spec{
		Config: vssd.Config{
			Name:             fmt.Sprintf("t%d-%s-m%d", tn.id, tn.Workload, tn.migrations),
			Isolation:        vssd.SoftwareIsolated,
			Channels:         make([]int, fc.Channels),
			LogicalPages:     slotLogicalPages(fc),
			MaxInflightPages: tn.prof.MaxInflightPages,
		},
		Overwrite: 0.2,
		RNG:       tn.rng,
	}
	for i := range spec.Channels {
		spec.Channels[i] = i
	}
	if f.lsSLO > 0 && tn.prof.Class == workload.Latency {
		spec.SLO = f.lsSLO
	}
	if tn.migrations == 0 {
		spec.PrefillFrac = f.cfg.PrefillFrac
	}
	// A fill that runs out of space stops there: the shard's engine is
	// live, and the tenant runs on with the pages mapped so far.
	v, _ := s.dev.AddVSSD(spec)
	tn.pageSize = fc.PageSize
	tn.logicalPages = int64(v.Tenant().LogicalPages())
	if s.fio != nil {
		// The platform only ever appends vSSDs, so syncing here keeps
		// agent i == vSSD i before the next decision window fires.
		s.fio.SyncAgents()
		// α follows the workload class, mirroring the paper's per-type
		// reward: latency-class tenants carry the isolation term (and
		// emit's SLO-escalation guardrail), bandwidth-class tenants get
		// α=0, which also caps their priority at medium.
		alpha := 0.0
		if tn.prof.Class == workload.Latency {
			alpha = core.AlphaLC1
		}
		s.fio.SetAlpha(v.ID(), alpha)
	}
	return v
}
