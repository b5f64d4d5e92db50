package harness

import (
	"repro/internal/sim"
	"repro/internal/vssd"
)

// A hardware-isolated tenant owns its channels, its GC and its streams, so
// its outcome is the same with or without the other tenants on the device
// (TestHardwareIsolationNonInterference). What it does share with them
// changes nothing it sees:
//   - the engine's (time, seq) order: restricted to one tenant's events the
//     order is unchanged, since no handler reads or schedules another
//     tenant's events;
//   - the FTL manager's allocation memo: another tenant's epoch bump only
//     causes a re-scan that returns the same answer;
//   - the retry lane: another tenant's entry only splits a stall run, and a
//     split run polls the same pages at the same instants;
//   - the device bus lane: it is FIFO, and the channels are private;
//   - the run's parent stream: the solo run replays the draws of the tenants
//     before it (Run.tenantStreams).
// A prefill that drained the engine would couple them through the one
// clock; the device's prefill never runs it, and AddTenant rejects one that
// does not fit. So RunOne and Calibrate run such a mix as one solo device
// per tenant, concurrently, and Measure stays the joint oracle.

// splittable reports whether a kind run of mix may run split: hardware
// isolation on its standard topology (an equal private channel share per
// tenant), with no fault injector, whose one stream per device draws in op
// order across tenants, and no observer, whose registry is one per platform.
// A mix whose tenants do not divide the channels stays joint, where it
// panics.
func splittable(mix MixSpec, kind PolicyKind, opt Options) bool {
	n := len(mix.Workloads)
	return kind == PolHardware && !opt.faultsEnabled() && opt.Obs == nil &&
		n > 0 && opt.flashConfig().Channels%n == 0
}

// measureSplit runs every tenant of a splittable mix alone (see solo), on up
// to opt.Workers goroutines, and returns the finished solo runs in mix
// order.
func measureSplit(mix MixSpec, slos []sim.Time, opt Options) []*Run {
	solos := make([]*Run, len(mix.Workloads))
	forEach(len(solos), opt.Workers, func(i int) {
		solos[i] = solo(mix, i, slos, opt).measure()
	})
	return solos
}

// solo builds tenant i of a splittable mix alone, on a device the size of
// its channel share, as the run it has inside the joint one: the same
// streams (the draws of tenants 0..i-1 replayed first), shape seed and vSSD
// name, on channels [0, share) instead of [i·share, (i+1)·share).
func solo(mix MixSpec, i int, slos []sim.Time, opt Options) *Run {
	share := opt.flashConfig().Channels / len(mix.Workloads)
	o := opt
	o.Channels = share
	r := NewRun(o)
	r.first = i
	for k := 0; k < i; k++ {
		r.tenantStreams(k)
	}
	spec := TenantSpec{
		Workload:    mix.Workloads[i],
		Isolation:   vssd.HardwareIsolated,
		Channels:    ChannelRange(0, share),
		PrefillFrac: opt.PrefillFrac,
	}
	if slos != nil {
		spec.SLO = slos[i]
	}
	r.AddTenant(spec)
	r.AttachPolicy(PolHardware)
	return r
}

// mergeSolos assembles the joint run's Result from a split mix's finished
// solo runs: their tenant rows in mix order, and the utilizations of their
// summed bytes, window by window, against the full device.
func mergeSolos(mix MixSpec, solos []*Run, opt Options) Result {
	res := Result{Mix: mix.name(), Policy: PolHardware.String()}
	windows := make([]windowLoad, len(solos[0].windows))
	var bytes int64
	for _, s := range solos {
		res.Tenants = append(res.Tenants, s.Result.Tenants...)
		bytes += s.Platform().VSSD(0).TotalBytesMoved()
		for w, l := range s.windows {
			windows[w].bytes += l.bytes
			windows[w].dur = max(windows[w].dur, l.dur)
		}
	}
	res.AvgUtil, res.P95Util = utilization(opt.flashConfig(), bytes, solos[0].Measured(), windows)
	return res
}
