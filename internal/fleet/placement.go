package fleet

import (
	"fmt"
	"strings"

	"repro/internal/workload"
)

// PlacementKind selects the tenant-to-device assignment baseline.
type PlacementKind uint8

// Placement baselines. All of them respect fleet admission: a device with
// no free slot is never chosen, and when no device has room the tenant is
// queued or rejected by the control plane.
const (
	// PlaceLeastLoaded picks the device with the fewest occupied slots,
	// breaking ties by last-epoch utilization, then by device id.
	PlaceLeastLoaded PlacementKind = iota
	// PlaceRoundRobin cycles through devices, skipping full ones.
	PlaceRoundRobin
	// PlaceHash maps the tenant id to a device by a seeded hash, probing
	// linearly past full devices.
	PlaceHash
)

// kindName is one row of a policy-name table: the kind, its canonical name
// (String, and what Parse reports as valid), and the other spellings the
// CLI flags accept. Table order is the comparison order the list function
// returns.
type kindName[K comparable] struct {
	kind    K
	name    string
	aliases []string
}

var placementNames = []kindName[PlacementKind]{
	{PlaceRoundRobin, "round-robin", []string{"rr", "roundrobin"}},
	{PlaceHash, "hash", nil},
	{PlaceLeastLoaded, "least-loaded", []string{"least", "ll"}},
}

// kindString is the String method of a table's kind type. A kind the
// table does not name prints as its number (%v would recurse into String).
func kindString[K ~uint8](rows []kindName[K], k K) string {
	for _, r := range rows {
		if r.kind == k {
			return r.name
		}
	}
	return fmt.Sprintf("%T(%d)", k, uint8(k))
}

// parseKind maps a flag value to the kind it names in the table; what
// names the table in the error.
func parseKind[K comparable](rows []kindName[K], what, s string) (K, error) {
	names := make([]string, len(rows))
	for i, r := range rows {
		if s == r.name {
			return r.kind, nil
		}
		for _, a := range r.aliases {
			if s == a {
				return r.kind, nil
			}
		}
		names[i] = r.name
	}
	var none K
	return none, fmt.Errorf("fleet: unknown %s %q (want one of %s)", what, s, strings.Join(names, ", "))
}

// kinds lists a table's kinds in table order.
func kinds[K comparable](rows []kindName[K]) []K {
	out := make([]K, len(rows))
	for i, r := range rows {
		out[i] = r.kind
	}
	return out
}

func (k PlacementKind) String() string { return kindString(placementNames, k) }

// ParsePlacement maps a flag value to a PlacementKind.
func ParsePlacement(s string) (PlacementKind, error) {
	return parseKind(placementNames, "placement", s)
}

// Placements lists every baseline, in comparison order.
func Placements() []PlacementKind { return kinds(placementNames) }

// place picks a device with a free slot for the tenant, or reports that
// the rack is full. It runs on the control-plane thread at an epoch
// boundary, so shard load fields are stable. A pinning tier policy
// (static-pin) tries the tenant's class tier first — latency-class the
// fast tier, bandwidth-class the rest — and spills to the other. The
// runtime movers, and every homogeneous rack, place class-blind anywhere;
// the movers rely on promote/demote to sort the rack.
func (f *Fleet) place(tn *Tenant) (int, bool) {
	if !tierRules[f.cfg.TierPolicy].pin {
		return f.pick(f.cfg.Placement, tn, 0, len(f.shards))
	}
	lo, hi := f.fastRange()
	slo, shi := f.denseRange()
	if tn.prof.Class != workload.Latency {
		lo, hi, slo, shi = slo, shi, lo, hi
	}
	if dev, ok := f.pick(f.cfg.Placement, tn, lo, hi); ok {
		return dev, true
	}
	return f.pick(f.cfg.Placement, tn, slo, shi)
}

// pick is the one device scan: it probes devices [lo, hi) for a free
// admission slot in the order kind dictates — from the round-robin cursor,
// from the tenant's seeded hash, or (least-loaded) over the whole range
// keeping the lessLoaded minimum — and returns the choice, or false when
// the range is full or empty. Migration destinations use it too.
func (f *Fleet) pick(kind PlacementKind, tn *Tenant, lo, hi int) (int, bool) {
	n := hi - lo
	if n <= 0 {
		return 0, false
	}
	var start uint64
	switch kind {
	case PlaceRoundRobin:
		start = uint64(f.rrNext)
	case PlaceHash:
		start = hash64(uint64(tn.ID), uint64(f.cfg.Seed))
	}
	best := -1
	for probe := 0; probe < n; probe++ {
		dev := lo + int((start+uint64(probe))%uint64(n))
		if !f.hasSlot(dev) {
			continue
		}
		switch kind {
		case PlaceRoundRobin:
			f.rrNext = (dev - lo + 1) % n
			return dev, true
		case PlaceHash:
			return dev, true
		}
		if best < 0 || f.lessLoaded(dev, best) {
			best = dev
		}
	}
	return best, best >= 0
}

// hasSlot reports whether the device has a free admission slot.
func (f *Fleet) hasSlot(dev int) bool {
	return f.shards[dev].slotsUsed < slotsPerDevice
}

// lessLoaded orders devices for least-loaded placement: fewest occupied
// slots, then lowest last-epoch utilization, then lowest id (the id
// tie-break keeps the choice deterministic).
func (f *Fleet) lessLoaded(a, b int) bool {
	sa, sb := f.shards[a], f.shards[b]
	if sa.slotsUsed != sb.slotsUsed {
		return sa.slotsUsed < sb.slotsUsed
	}
	if sa.epochUtil != sb.epochUtil {
		return sa.epochUtil < sb.epochUtil
	}
	return a < b
}

// hash64 is a SplitMix64-style scramble of (x, salt).
func hash64(x, salt uint64) uint64 {
	z := x + (salt+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
