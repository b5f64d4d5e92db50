// Package core implements FleetIO itself: the per-vSSD RL agents (§3.3),
// the Table 1 state encoding, the Table 2 action space, the single- and
// multi-agent reward functions (Eq. 1 and Eq. 2), workload-type reward
// fine-tuning (§3.4), and the decision loop that drives agents every time
// window through admission control. The same Policy interface hosts the
// baseline schedulers, so every experiment runs policies interchangeably.
package core

import (
	"repro/internal/admission"
	"repro/internal/sim"
	"repro/internal/vssd"
)

// Policy decides per-window actions for all vSSDs on a platform. Decide is
// called once per decision window with that window's snapshots, in vSSD
// order; returned actions are executed through admission control (harvest
// actions) or directly (the rest). Stateful policies (FleetIO, Adaptive)
// keep history between calls. The returned slice is only valid until the
// next Decide call — implementations may reuse it as scratch.
type Policy interface {
	Name() string
	Decide(now sim.Time, snaps []vssd.WindowSnapshot) []vssd.Action
}

// StaticPolicy takes no runtime actions (Hardware Isolation, Software
// Isolation, SSDKeeper after its initial partitioning decision).
type StaticPolicy struct{ PolicyName string }

// Name returns the policy's display name.
func (s StaticPolicy) Name() string { return s.PolicyName }

// Decide never acts.
func (s StaticPolicy) Decide(sim.Time, []vssd.WindowSnapshot) []vssd.Action { return nil }

// Runner drives a policy: every Window (which must be positive) it rotates
// all vSSD windows, asks the policy for actions, and routes them through
// admission control.
type Runner struct {
	Plat   *vssd.Platform
	Adm    *admission.Controller // nil: apply directly
	Policy Policy
	Window sim.Time

	// OnWindow, if set, observes each window's snapshots (used by the
	// harness to build utilization timelines).
	OnWindow func(now sim.Time, snaps []vssd.WindowSnapshot)

	windows int64
	started bool
	// snaps is the per-tick snapshot scratch, reused across windows. No
	// consumer (Decide, OnWindow) retains the slice past its call.
	snaps []vssd.WindowSnapshot
}

// Windows returns the number of decision windows elapsed.
func (r *Runner) Windows() int64 { return r.windows }

// Start arms the decision ticker. The first rotation happens one window
// from now.
func (r *Runner) Start() {
	if r.started {
		return
	}
	r.started = true
	if r.Adm != nil {
		r.Adm.Start()
	}
	r.Plat.Engine().Ticker(r.Window, r.step)
}

func (r *Runner) step(now sim.Time) {
	r.windows++
	vs := r.Plat.VSSDs()
	if cap(r.snaps) < len(vs) {
		r.snaps = make([]vssd.WindowSnapshot, len(vs))
	}
	snaps := r.snaps[:len(vs)]
	for i, v := range vs {
		snaps[i] = v.Rotate()
	}
	if r.OnWindow != nil {
		r.OnWindow(now, snaps)
	}
	for _, a := range r.Policy.Decide(now, snaps) {
		if r.Adm != nil {
			r.Adm.Submit(a)
		} else {
			r.Plat.Apply(a)
		}
	}
}
