package fleet

import (
	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// tierNames label a hybrid rack's two tiers, fast first, in Stats.Tiers
// and the fleetio_tier_* series.
var tierNames = [...]string{"fast", "dense"}

// fastDevices is how many of a hybrid rack's devices form the fast tier:
// a quarter, and at least one. They take the lowest device ids.
func (c Config) fastDevices() int { return max(c.Devices/4, 1) }

// tierFlash derives tier t's geometry from the rack geometry: the fast
// SLC-like tier (t = 0) has short page timings and half the blocks, the
// dense QLC-like tier long timings and double the blocks. Tiers are
// expressed purely through the existing geometry/timing fields, with
// channel/chip parallelism unchanged, so every layer below the fleet
// (flash, FTL, gSB, vSSD) runs unmodified.
func tierFlash(fc flash.Config, t int) flash.Config {
	if t == 0 {
		fc.ReadPage, fc.ProgramPage, fc.EraseBlock = 25*sim.Microsecond, 200*sim.Microsecond, 2*sim.Millisecond
		fc.BlocksPerChip = 16
	} else {
		fc.ReadPage, fc.ProgramPage, fc.EraseBlock = 140*sim.Microsecond, 2*sim.Millisecond, 3500*sim.Microsecond
		fc.BlocksPerChip = 64
	}
	return fc
}

// TierPolicyKind selects the promote/demote driver of a hybrid rack, and
// whether a rack is hybrid at all. Initial placement differs too: the
// static-pin baseline pins by workload class at admission, while the
// runtime movers start class-blind (Config.Placement over the whole rack)
// and must discover the assignment.
type TierPolicyKind uint8

// Tier policies, in comparison order after TierNone.
const (
	// TierNone, the zero value, is a homogeneous rack: one geometry,
	// no tier control plane. It is not a flag value, so TierPolicies and
	// ParseTierPolicy do not know it.
	TierNone TierPolicyKind = iota
	// TierStatic is the static-pin baseline: latency-class tenants prefer
	// the fast tier at admission (bandwidth-class the dense tier), spill
	// to the other tier when their preferred one is full, and never move
	// afterwards.
	TierStatic TierPolicyKind = iota
	// TierWatermark is the adaptive occupancy baseline: class-blind
	// admission; when fast-tier occupancy reaches tierHighWater (0.95) the
	// coldest fast tenant is demoted, and below tierLowWater (0.60) the
	// hottest dense tenant is promoted. Heat is the per-epoch byte delta,
	// the same victim signal load balancing uses. The policy is class-blind
	// by design — that is what the learned policy has to beat.
	TierWatermark
	// TierLearned deploys the full FleetIO agent stack on every shard
	// (per-vSSD PPO agents with the placement head and fast-tier
	// occupancy state): agents issue the usual device actions each
	// window, and the control plane consumes their tier hints at epoch
	// barriers, promoting tenants that hint fast and demoting
	// bandwidth-class tenants that hint dense. Guardrails mirror
	// core.FleetIO.emit's priority guardrails: a latency-class tenant is
	// never demoted on a sampled hint, and is pulled toward the fast
	// tier when a slot is free even without one.
	TierLearned
)

var tierPolicyNames = []kindName[TierPolicyKind]{
	{TierStatic, "static-pin", []string{"static", "pin"}},
	{TierWatermark, "watermark", []string{"wm"}},
	{TierLearned, "learned", []string{"rl"}},
}

func (k TierPolicyKind) String() string { return kindString(tierPolicyNames, k) }

// ParseTierPolicy maps a flag value to a TierPolicyKind.
func ParseTierPolicy(s string) (TierPolicyKind, error) {
	return parseKind(tierPolicyNames, "tier policy", s)
}

// TierPolicies lists every hybrid-rack tier policy, in comparison order.
func TierPolicies() []TierPolicyKind { return kinds(tierPolicyNames) }

// tierRule is a tier policy as data: whether admission pins a tenant to
// its class tier, and for each direction which tenant moves (the rank the
// victim scan maximizes; nil → never) and at what fast-tier occupancy.
type tierRule struct {
	pin bool
	// demote picks the fast-tier tenant to move out while occupancy is at
	// least demoteAt; promote the dense-tier tenant to move in while it is
	// below promoteBelow.
	demote, promote        rank
	demoteAt, promoteBelow float64
}

// tierRules is indexed by TierPolicyKind; TierNone places over the
// whole rack and never moves a tenant. The watermark thresholds do not
// overlap, so that policy starts at most one move per epoch; the learned
// policy's always hold (occupancy lies in [0, 1]), so it may start one
// each way.
var tierRules = [...]tierRule{
	TierNone:      {},
	TierStatic:    {pin: true},
	TierWatermark: {demote: coldest, demoteAt: tierHighWater, promote: hottest, promoteBelow: tierLowWater},
	TierLearned:   {demote: hintsDense, demoteAt: 0, promote: hintsFast, promoteBelow: 2},
}

// fastRange returns the device-id range [lo, hi) of the fast tier;
// denseRange the rest of the rack. Both rely on the tier-contiguous device
// ids New assigns.
func (f *Fleet) fastRange() (int, int)  { return 0, len(f.tiers[0]) }
func (f *Fleet) denseRange() (int, int) { return len(f.tiers[0]), len(f.shards) }

// tierOccupancy is the fast tier's slot occupancy in [0, 1].
func (f *Fleet) tierOccupancy() float64 {
	used := 0
	for _, sh := range f.tiers[0] {
		used += sh.slotsUsed
	}
	return float64(used) / float64(len(f.tiers[0])*slotsPerDevice)
}

// stepTiers is the tiered control-plane phase, run right after
// departures and before the admission queue retries, so a slot freed by
// a departure can host a promote before a queued arrival grabs it. It
// feeds the fast-tier occupancy to the learned shards' agents, then lets
// the configured policy's rule start at most one demote and one promote
// per epoch through the ordinary migration datapath (drain → copy as real
// simulated I/O → cutover), sharing the in-flight budget with
// load-balancing migration. Destinations are least-loaded in the target
// tier.
func (f *Fleet) stepTiers(now sim.Time) {
	occ := f.tierOccupancy()
	for _, sh := range f.shards {
		if sh.fio == nil {
			continue
		}
		for _, tn := range sh.resident {
			if tn.vssd != nil {
				sh.fio.SetTierOcc(tn.vssd.ID(), occ)
			}
		}
	}
	rule := tierRules[f.cfg.TierPolicy]
	fl, fh := f.fastRange()
	dl, dh := f.denseRange()
	if rule.demote != nil && occ >= rule.demoteAt {
		f.move(f.victim(fl, fh, now, rule.demote), dl, dh, now)
	}
	if rule.promote != nil && occ < rule.promoteBelow {
		f.move(f.victim(dl, dh, now, rule.promote), fl, fh, now)
	}
}

// move migrates tn (nil → nobody qualified) to the least-loaded device
// with a free slot in [lo, hi), if there is one and the in-flight budget
// allows another migration.
func (f *Fleet) move(tn *Tenant, lo, hi int, now sim.Time) {
	if tn == nil || !f.canMigrate() {
		return
	}
	if dst, ok := f.pick(PlaceLeastLoaded, tn, lo, hi); ok {
		f.startMigration(tn, dst, now)
	}
}

// canMigrate reports whether another migration may start under the
// shared in-flight budget.
func (f *Fleet) canMigrate() bool {
	return f.led.MigrationsStarted-f.led.MigrationsCompleted < f.cfg.maxMigrations()
}

// rank scores a migration candidate for the victim scan: the highest
// score wins, and ok=false excludes the tenant. Ranks are package-level
// functions, not closures, so the per-epoch scans allocate nothing.
type rank func(f *Fleet, tn *Tenant) (score int64, ok bool)

// hottest and coldest rank by the per-epoch byte delta — the heat signal
// load balancing and the class-blind watermark policy share.
func hottest(_ *Fleet, tn *Tenant) (int64, bool) { return tn.epochBytes, true }
func coldest(_ *Fleet, tn *Tenant) (int64, bool) { return -tn.epochBytes, true }

// hintsDense is the learned policy's demote rank: the coldest
// bandwidth-class tenant whose agent hints dense. A latency-class tenant
// is never demoted on a sampled hint (the tier analogue of
// core.FleetIO.emit's priority guardrails).
func hintsDense(f *Fleet, tn *Tenant) (int64, bool) {
	return -tn.epochBytes, tn.prof.Class != workload.Latency && f.tierHint(tn) == core.TierDense
}

// hintsFast is the learned policy's promote rank: latency-class tenants
// first, with or without a hint (emit's SLO-escalation guardrail: they are
// pulled toward the fast tier whenever a slot is free), then
// bandwidth-class tenants that hint fast; within a group, hottest wins.
func hintsFast(f *Fleet, tn *Tenant) (int64, bool) {
	if tn.prof.Class == workload.Latency {
		return tn.epochBytes + 1<<62, true // outranks any byte count
	}
	return tn.epochBytes, f.tierHint(tn) == core.TierFast
}

// tierHint reads the tenant's last placement-head sample from its
// shard's agent stack (-1 when none yet).
func (f *Fleet) tierHint(tn *Tenant) int {
	sh := f.shards[tn.device]
	if sh.fio == nil || tn.vssd == nil {
		return -1
	}
	return sh.fio.TierHint(tn.vssd.ID())
}

// victim is the one migration-candidate scan: over devices [lo, hi), the
// running tenant, settled on its device (Config.settle — not worth moving
// sooner), that r ranks highest. Device order then resident order break
// ties, keeping the choice deterministic.
func (f *Fleet) victim(lo, hi int, now sim.Time, r rank) *Tenant {
	var best *Tenant
	var bestScore int64
	settle := f.cfg.settle()
	for dev := lo; dev < hi; dev++ {
		for _, tn := range f.shards[dev].resident {
			if tn.state != stateRunning || tn.device != dev || now-tn.placedAt < settle {
				continue
			}
			if score, ok := r(f, tn); ok && (best == nil || score > bestScore) {
				best, bestScore = tn, score
			}
		}
	}
	return best
}

// collectTiers fills the tier section of a hybrid rack's roll-up:
// per-tier device and slot usage and the latency-class tail summary (each
// latency tenant's whole-run P99 on its current device — the histogram
// resets at cutover, so a migrated tenant reports the latency of its
// current placement, not the bulk copy).
func (f *Fleet) collectTiers(s *Stats) {
	for t, tier := range f.tiers {
		ts := TierStats{Name: tierNames[t], Devices: len(tier), Slots: len(tier) * slotsPerDevice}
		for _, sh := range tier {
			ts.SlotsUsed += sh.slotsUsed
			if f.epochs > 0 {
				ts.MeanUtil += sh.utilSum / float64(f.epochs)
			}
		}
		ts.MeanUtil /= float64(len(tier))
		s.Tiers = append(s.Tiers, ts)
	}
	var sum float64
	for _, tn := range f.tenants[:f.nextArr] {
		if tn.prof.Class != workload.Latency || tn.vssd == nil {
			continue
		}
		if tn.state != stateRunning && tn.state != stateLeaving {
			continue
		}
		h := tn.vssd.TotalHist()
		if h.Count() == 0 {
			continue
		}
		p99 := float64(h.P99()) / 1e6
		s.LsTenants++
		sum += p99
		if p99 > s.LsWorstP99Ms {
			s.LsWorstP99Ms = p99
		}
	}
	if s.LsTenants > 0 {
		s.LsMeanP99Ms = sum / float64(s.LsTenants)
	}
}

// tierMetrics is the fleetio_tier_* series catalogue, registered only on
// hybrid racks. The per-tier series carry a tier label fixed at
// registration, indexed by tier here.
type tierMetrics struct {
	slots, slotsUsed, occupancy, utilMean []*obs.Metric
	promotes, demotes                     *obs.Metric
	movesInFlight                         *obs.Metric
	copyBytes                             *obs.Metric
}

func newTierMetrics(reg *obs.Registry) *tierMetrics {
	m := &tierMetrics{
		promotes:      reg.Counter("fleetio_tier_promotes_total", "Cross-tier migrations completed into the fast tier."),
		demotes:       reg.Counter("fleetio_tier_demotes_total", "Cross-tier migrations completed out of the fast tier."),
		movesInFlight: reg.Gauge("fleetio_tier_moves_inflight", "Cross-tier migrations currently draining or copying."),
		copyBytes:     reg.Counter("fleetio_tier_copy_bytes_total", "Payload bytes written to the destination by completed promotes/demotes."),
	}
	for _, name := range tierNames {
		m.slots = append(m.slots, reg.Gauge("fleetio_tier_slots", "Admission slots per device class.", "tier", name))
		m.slotsUsed = append(m.slotsUsed, reg.Gauge("fleetio_tier_slots_used", "Occupied admission slots per device class.", "tier", name))
		m.occupancy = append(m.occupancy, reg.Gauge("fleetio_tier_occupancy", "Slot occupancy per device class.", "tier", name))
		m.utilMean = append(m.utilMean, reg.Gauge("fleetio_tier_util_mean", "Mean device utilization per class over the last epoch.", "tier", name))
	}
	return m
}

// publishTier refreshes tier t's series from its device count, occupied
// slots and summed last-epoch utilization.
func (m *tierMetrics) publishTier(t, devices, used int, util float64) {
	slots := devices * slotsPerDevice
	m.slots[t].Set(float64(slots))
	m.slotsUsed[t].Set(float64(used))
	m.occupancy[t].Set(float64(used) / float64(slots))
	m.utilMean[t].Set(util / float64(devices))
}

// publishLedger refreshes the promote/demote series; movesInFlight is
// counted from the live migrations (Fleet.inFlight).
func (m *tierMetrics) publishLedger(led *Stats, movesInFlight int) {
	m.promotes.Set(float64(led.Promotes))
	m.demotes.Set(float64(led.Demotes))
	m.movesInFlight.Set(float64(movesInFlight))
	m.copyBytes.Set(float64(led.CrossTierBytes))
}
