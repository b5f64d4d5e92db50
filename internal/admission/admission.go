// Package admission implements FleetIO's admission control for RL actions
// (§3.5): harvest-related actions are validated against a provider policy,
// batched (50 ms by default), and reordered so Make_Harvestable executes
// before Harvest — maximizing the harvestable supply and avoiding
// immediate reclamation. Under contention, Harvest actions are served
// first-come-first-served with vSSDs holding fewer harvested resources
// given priority.
package admission

import (
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vssd"
)

// Policy is the cloud provider's permission check for harvest actions.
// Implementations can forbid high-priority VMs from lending resources or
// spot VMs from harvesting. A nil Policy permits everything.
type Policy interface {
	// AllowHarvest reports whether the vSSD may execute Harvest actions.
	AllowHarvest(vssdID int) bool
	// AllowMakeHarvestable reports whether the vSSD may lend resources.
	AllowMakeHarvestable(vssdID int) bool
}

// Stats counts controller activity.
type Stats struct {
	Batches   int64
	Admitted  int64
	Filtered  int64
	Immediate int64
}

// interval is the batch flush period (the paper uses 50 ms).
const interval = 50 * sim.Millisecond

// Controller batches and orders actions before the platform executes them.
type Controller struct {
	plat   *vssd.Platform
	policy Policy

	batch   []entry
	spare   []entry // drained batch array, recycled on the next fill
	sorter  batchSorter
	arrival int64
	started bool
	stats   Stats

	// Obs traces admission verdicts (filtered and admitted harvest-related
	// actions); nil disables. Immediate pass-through actions are not traced
	// here — the policy layer already records the decision that issued them.
	Obs *obs.Recorder
}

type entry struct {
	action  vssd.Action
	arrival int64
}

// batchSorter implements the §3.5 ordering as a concrete sort.Interface:
// sort.SliceStable's reflect.Swapper allocates per call, and Flush runs
// every 50 ms for the lifetime of a deployment. Any stable sort produces
// the same permutation for a given comparator and input order, so the
// admitted sequence is identical to the previous sort.SliceStable code.
type batchSorter struct {
	batch []entry
	gsbm  gsbHarvested
}

// gsbHarvested is the slice of the gSB manager the ordering consults.
type gsbHarvested interface {
	HarvestedChannels(harvester int) int
}

func (s *batchSorter) Len() int      { return len(s.batch) }
func (s *batchSorter) Swap(i, j int) { s.batch[i], s.batch[j] = s.batch[j], s.batch[i] }

func (s *batchSorter) Less(i, j int) bool {
	ai, aj := s.batch[i], s.batch[j]
	mi := ai.action.Kind == vssd.ActMakeHarvestable
	mj := aj.action.Kind == vssd.ActMakeHarvestable
	if mi != mj {
		return mi // Make_Harvestable strictly first
	}
	if !mi {
		// Both harvests: fewer already-harvested channels first, then FCFS.
		hi := s.gsbm.HarvestedChannels(ai.action.VSSD)
		hj := s.gsbm.HarvestedChannels(aj.action.VSSD)
		if hi != hj {
			return hi < hj
		}
	}
	return ai.arrival < aj.arrival
}

// NewController builds a controller with the paper's defaults; a nil
// policy permits every action.
func NewController(plat *vssd.Platform, policy Policy) *Controller {
	return &Controller{plat: plat, policy: policy}
}

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// Start arms the periodic flush on the engine. Safe to call once.
func (c *Controller) Start() {
	if c.started {
		return
	}
	c.started = true
	c.plat.Engine().Ticker(interval, func(sim.Time) bool {
		c.Flush()
		return true
	})
}

// Submit routes an action: harvest-related actions are policy-checked and
// batched; everything else (Set_Priority, channel/rate changes) applies
// immediately since it is not subject to admission control.
func (c *Controller) Submit(a vssd.Action) {
	switch a.Kind {
	case vssd.ActHarvest:
		if c.policy != nil && !c.policy.AllowHarvest(a.VSSD) {
			c.stats.Filtered++
			c.Obs.Verdict(obs.KindAdmissionFilter, a.VSSD, a.Kind.String(), a.BW)
			return
		}
	case vssd.ActMakeHarvestable:
		if c.policy != nil && !c.policy.AllowMakeHarvestable(a.VSSD) {
			c.stats.Filtered++
			c.Obs.Verdict(obs.KindAdmissionFilter, a.VSSD, a.Kind.String(), a.BW)
			return
		}
	default:
		c.stats.Immediate++
		c.plat.Apply(a)
		return
	}
	c.arrival++
	c.batch = append(c.batch, entry{action: a, arrival: c.arrival})
}

// Flush executes the current batch: Make_Harvestable first (supply before
// demand), then Harvest in FCFS order with least-harvested vSSDs first.
func (c *Controller) Flush() {
	if len(c.batch) == 0 {
		return
	}
	// Double-buffer: drain the filled batch while Submit (reentrant or
	// next-window) fills the spare, then recycle the drained array.
	batch := c.batch
	c.batch = c.spare[:0]
	c.stats.Batches++
	c.sorter.batch = batch
	c.sorter.gsbm = c.plat.GSB()
	sort.Stable(&c.sorter)
	c.sorter.batch = nil
	for _, e := range batch {
		c.stats.Admitted++
		c.Obs.Verdict(obs.KindAdmissionAdmit, e.action.VSSD, e.action.Kind.String(), e.action.BW)
		c.plat.Apply(e.action)
	}
	c.spare = batch[:0]
}
