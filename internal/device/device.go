// Package device assembles one simulated SSD the one way every caller runs
// it: an engine and its platform (with an optional decision recorder and
// NAND fault injector), vSSDs created with their FTLs prefilled, a workload
// generator bound to each driven vSSD, and the policy runner that decides
// every window. A single-device experiment (harness.Run) and every rack
// shard (fleet.Shard) are one Device each; they differ only in the data
// they pass.
package device

import (
	"fmt"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vssd"
	"repro/internal/workload"
)

// Device is one SSD on its own engine: its platform, the generators driving
// its vSSDs and the runner driving its policy.
type Device struct {
	plat    *vssd.Platform
	gens    []*workload.Generator // by vSSD id; nil while undriven
	runner  *core.Runner
	started bool
}

// New builds a device of geometry fc on a fresh engine, with no vSSDs yet.
// rec (nil: untraced) receives the stack's decision events; faults (nil:
// fault-free) installs a NAND fault injector with that configuration.
func New(fc flash.Config, rec *obs.Recorder, faults *fault.Config) *Device {
	pc := vssd.DefaultPlatformConfig()
	pc.Flash = fc
	plat := vssd.NewPlatform(sim.NewEngine(), pc)
	plat.SetObserver(rec)
	if faults != nil {
		plat.Device().SetFaultInjector(fault.NewInjector(*faults))
	}
	return &Device{plat: plat}
}

// Spec is one vSSD: its configuration, its throttle, and how full its FTL
// starts.
type Spec struct {
	vssd.Config
	// RateLimit throttles the vSSD to this many bytes/s through a token
	// bucket half a second deep that starts empty; 0: unthrottled.
	RateLimit float64
	// PrefillFrac of the logical space is mapped in LPN order, then
	// Overwrite of those pages is rewritten at LPNs drawn from RNG, so GC
	// has invalid pages to reclaim.
	PrefillFrac, Overwrite float64
	RNG                    *sim.RNG
}

// AddVSSD creates the next vSSD per spec and prefills its FTL. A prefill
// that runs out of space returns an error with the vSSD kept, the pages it
// mapped still mapped; it never runs the engine.
func (d *Device) AddVSSD(s Spec) (*vssd.VSSD, error) {
	v := d.plat.AddVSSD(s.Config)
	if s.RateLimit > 0 {
		v.SetRateLimit(s.RateLimit, s.RateLimit/2)
	}
	return v, prefill(v.Tenant(), s.PrefillFrac, s.Overwrite, s.RNG)
}

// prefill maps pages without simulated I/O: frac of t's logical space in
// LPN order, then overwrite of those pages at LPNs drawn from rng. The
// device may already be live, so it never drains the engine to let GC free
// space: the first allocation that finds none ends the fill with an error.
func prefill(t *ftl.Tenant, frac, overwrite float64, rng *sim.RNG) error {
	if !(frac >= 0 && frac <= 1 && overwrite >= 0 && overwrite <= 1) {
		return fmt.Errorf("device: prefill fractions %v and %v out of [0, 1]", frac, overwrite)
	}
	n := int(float64(t.LogicalPages()) * frac)
	total := n + int(float64(n)*overwrite)
	for i := 0; i < total; i++ {
		lpn := i
		if i >= n {
			lpn = rng.Intn(n)
		}
		if _, ok := t.AllocatePage(lpn, false); !ok {
			return fmt.Errorf("device: prefill found no free page for LPN %d, page %d of %d", lpn, i, total)
		}
	}
	return nil
}

// Drive binds a generator of prof to vSSD id, drawing from rng and
// recording into rec (nil: untraced), and stops the generator bound there
// before. On a started device the new generator starts at once; otherwise
// Start starts it.
func (d *Device) Drive(id int, prof workload.Profile, rng *sim.RNG, rec *trace.Recorder) *workload.Generator {
	for len(d.gens) <= id {
		d.gens = append(d.gens, nil)
	}
	if old := d.gens[id]; old != nil {
		old.Stop()
	}
	g := workload.NewGenerator(d.plat.Engine(), d.plat.VSSD(id), prof, rng)
	g.Record(rec)
	d.gens[id] = g
	if d.started {
		g.Start()
	}
	return g
}

// Record binds rec to the generator driving vSSD id (nil: stop recording),
// so its reader can start tracing a tenant Drive built untraced.
func (d *Device) Record(id int, rec *trace.Recorder) { d.gens[id].Record(rec) }

// Attach installs the runner that asks policy for actions every window,
// sending them through adm (nil: applied directly).
func (d *Device) Attach(policy core.Policy, adm *admission.Controller, window sim.Time) {
	d.runner = &core.Runner{Plat: d.plat, Adm: adm, Policy: policy, Window: window}
}

// Start starts every bound generator, in vSSD order, and then the runner
// Attach installed. Call it once.
func (d *Device) Start() {
	d.started = true
	for _, g := range d.gens {
		if g != nil {
			g.Start()
		}
	}
	d.runner.Start()
}

// Advance runs the engine to virtual time to.
func (d *Device) Advance(to sim.Time) { d.plat.Engine().RunUntil(to) }

// Stop stops every generator, so the engine's event queue can drain. The
// runner keeps deciding while the engine runs.
func (d *Device) Stop() {
	for _, g := range d.gens {
		if g != nil {
			g.Stop()
		}
	}
}

// Started reports whether Start has been called.
func (d *Device) Started() bool { return d.started }

// Platform returns the device's platform.
func (d *Device) Platform() *vssd.Platform { return d.plat }

// Runner returns the runner Attach installed (nil before).
func (d *Device) Runner() *core.Runner { return d.runner }

// Generators returns the bound generators by vSSD id (nil: undriven).
func (d *Device) Generators() []*workload.Generator { return d.gens }

// Invariants returns the FTL's and the gSB manager's rows, which hold at
// every instant between events.
func (d *Device) Invariants() []obs.Invariant {
	return append(d.plat.FTL().Invariants(), d.plat.GSB().Invariants()...)
}

// FaultStats is a device's fault-recovery ledger: what its NAND injected
// and what the FTL and vSSD layers did about it.
type FaultStats struct {
	Device          flash.FaultStats
	Retired         int64
	Remapped        int64
	GCRetryPrograms int64
	GCRetrySkips    int64
	WriteRetries    int64
}

// Invariants returns the recovery ledger's rows, which hold once the
// device has settled (see Device.FaultStats): every injected program
// failure was remapped exactly once (fault.remapped) and resolved by
// exactly one recovery action, a host re-dispatch, a GC re-program or a GC
// skip (fault.recovered).
func (s FaultStats) Invariants() []obs.Invariant {
	injected, recovered := s.Device.ProgramFails, s.WriteRetries+s.GCRetryPrograms+s.GCRetrySkips
	return []obs.Invariant{
		{Name: "fault.remapped", LHS: injected, RHS: s.Remapped, OK: injected == s.Remapped},
		{Name: "fault.recovered", LHS: s.Remapped, RHS: recovered, OK: s.Remapped == recovered},
	}
}

// FaultStats reads the fault-recovery ledger as it stands. A program that
// failed just before now may not have completed its retry yet: stop the
// generators and advance a little first to read a settled ledger.
func (d *Device) FaultStats() FaultStats {
	fst := d.plat.FTL().Stats()
	st := FaultStats{
		Device:          d.plat.Device().FaultStats(),
		Retired:         fst.Retired,
		Remapped:        fst.Remapped,
		GCRetryPrograms: fst.GCRetryPrograms,
		GCRetrySkips:    fst.GCRetrySkips,
	}
	for _, v := range d.plat.VSSDs() {
		st.WriteRetries += v.TotalRetries()
	}
	return st
}
