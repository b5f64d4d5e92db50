package obs

import (
	"fmt"

	"repro/internal/sim"
)

// EventKind identifies what a traced event records. Kinds marshal to the
// snake_case strings listed in docs/OBSERVABILITY.md so JSONL traces stay
// grep-able and stable across refactors.
type EventKind uint8

// Event kinds, grouped by the subsystem that emits them.
const (
	// KindHarvest is an RL agent's Harvest(gsb_bw) decision (core).
	KindHarvest EventKind = iota
	// KindMakeHarvestable is an RL agent's Make_Harvestable(gsb_bw)
	// decision (core).
	KindMakeHarvestable
	// KindSetPriority is an RL agent's Set_Priority(level) decision,
	// after the core's guardrail clamps (core).
	KindSetPriority
	// KindReward is the per-window reward fed back to an agent: Reward
	// holds the Eq. 2 mixed value, Single the agent's own Eq. 1 term.
	KindReward
	// KindAdmissionAdmit is a harvest-related action executed by the
	// admission controller's batch flush (admission).
	KindAdmissionAdmit
	// KindAdmissionFilter is a harvest-related action rejected by the
	// provider policy (admission).
	KindAdmissionFilter
	// KindGSBCreate is a new ghost superblock entering the pool; VSSD is
	// the home tenant, Channels its stripe width (gsb).
	KindGSBCreate
	// KindGSBHarvest is a gSB leaving the pool; VSSD is the harvester,
	// Peer the home tenant (gsb).
	KindGSBHarvest
	// KindGSBReclaim is the start of (possibly lazy) reclamation; VSSD is
	// the home tenant, Peer the harvester or -1 (gsb).
	KindGSBReclaim
	// KindGSBFinalize is a gSB fully drained back to its home pool (gsb).
	KindGSBFinalize
	// KindGCRun is a GC victim selection; VSSD is the collecting tenant,
	// Block the victim index, Valid its live pages (ftl).
	KindGCRun
	// KindSLOViolation is a completed host request whose latency exceeded
	// the vSSD's SLO (vssd).
	KindSLOViolation
)

var eventKindNames = [...]string{
	KindHarvest:         "harvest",
	KindMakeHarvestable: "make_harvestable",
	KindSetPriority:     "set_priority",
	KindReward:          "reward",
	KindAdmissionAdmit:  "admission_admit",
	KindAdmissionFilter: "admission_filter",
	KindGSBCreate:       "gsb_create",
	KindGSBHarvest:      "gsb_harvest",
	KindGSBReclaim:      "gsb_reclaim",
	KindGSBFinalize:     "gsb_finalize",
	KindGCRun:           "gc_run",
	KindSLOViolation:    "slo_violation",
}

// String returns the stable snake_case name of the kind.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("event_kind_%d", uint8(k))
}

// MarshalJSON encodes the kind as its String form.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON decodes a kind from its String form.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	for i, name := range eventKindNames {
		if string(b) == `"`+name+`"` {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %s", b)
}

// event is one traced decision. Only the fields meaningful for the Kind
// are set; the zero values of the rest are omitted from JSON. Seq is a
// recorder-wide monotone sequence number that makes the interleaving of
// events across vSSDs reconstructible even when virtual timestamps tie.
type event struct {
	Seq  uint64    `json:"seq"`
	At   sim.Time  `json:"at_ns"`
	Kind EventKind `json:"kind"`
	// VSSD is the acting vSSD/tenant id (-1 when not tied to one).
	VSSD int `json:"vssd"`
	// Peer is the other party of a two-sided event (gSB home tenant for a
	// harvest, the harvester for a reclaim); -1 when absent.
	Peer int `json:"peer,omitempty"`
	// GSB is the ghost-superblock id for gSB lifecycle events.
	GSB int `json:"gsb,omitempty"`
	// BW is the bytes/s operand of harvest-related decisions.
	BW float64 `json:"bw_bps,omitempty"`
	// Level is the Set_Priority operand.
	Level int `json:"level,omitempty"`
	// Channels is the channel footprint of a gSB event.
	Channels int `json:"channels,omitempty"`
	// Block and Valid describe a GC victim (block index, live pages).
	Block int `json:"block,omitempty"`
	Valid int `json:"valid,omitempty"`
	// Harvested marks a GC victim carrying the Harvested Block Table bit.
	Harvested bool `json:"harvested,omitempty"`
	// LatencyNs and SLONs describe an SLO violation.
	LatencyNs int64 `json:"latency_ns,omitempty"`
	SLONs     int64 `json:"slo_ns,omitempty"`
	// Reward and Single are the Eq. 2 mixed and Eq. 1 own-reward values.
	Reward float64 `json:"reward,omitempty"`
	Single float64 `json:"single,omitempty"`
	// Action names the admitted/filtered action for admission verdicts.
	Action string `json:"action,omitempty"`
}
