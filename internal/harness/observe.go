package harness

import (
	"strconv"

	"repro/internal/admission"
	"repro/internal/ftl"
	"repro/internal/gsb"
	"repro/internal/obs"
	"repro/internal/sim"
)

// startObserving registers the run's telemetry probes on the observer's
// registry and starts the virtual-time sampler. It returns the started
// sampler (nil when telemetry is off); Stop stops it so the engine's event
// queue can drain after measurement.
//
// The probes are the metric catalogue documented in docs/OBSERVABILITY.md:
// per-vSSD bandwidth/IOPS/P99/queue depth, device GC and write-amp
// activity, gSB lifecycle counts, and admission verdicts.
func (r *Run) startObserving() *obs.Sampler {
	o := r.opt.Obs
	if o == nil || o.Reg == nil {
		return nil
	}
	reg := o.Reg
	s := obs.NewSampler()

	plat := r.Platform()
	eng := plat.Engine()
	simTime := reg.Gauge("fleetio_sim_time_seconds", "Virtual time of the current run.")
	simEvents := reg.Counter("fleetio_sim_events_total", "Engine events executed (a stall run polls all its pages in one event).")
	samples := reg.Counter("fleetio_obs_samples_total", "Telemetry sample rounds taken.")

	// Device-wide running totals: each counter mirrors one field of the
	// snapshots the probe refreshes every tick (cumulative model stats
	// exported as counters by setting the running totals).
	var (
		fst    ftl.Stats
		gst    gsb.Stats
		ast    admission.Stats
		ledger FaultRunStats
		totals []func()
	)
	total := func(name, help string, v *int64) {
		m := reg.Counter(name, help)
		totals = append(totals, func() { m.Set(float64(*v)) })
	}
	ftlm := plat.FTL()
	gsbm := plat.GSB()
	total("fleetio_ftl_host_programs_total", "Host page programs.", &fst.HostPrograms)
	total("fleetio_ftl_gc_programs_total", "GC page-migration programs.", &fst.GCPrograms)
	total("fleetio_ftl_erases_total", "Block erases.", &fst.Erases)
	total("fleetio_ftl_gc_runs_total", "GC victim collections started.", &fst.GCRuns)
	total("fleetio_ftl_alloc_stalls_total", "Failed host page allocations (allocation-stall polls, counted per page).", &fst.AllocStalls)
	writeAmp := reg.Gauge("fleetio_ftl_write_amplification", "(host+GC programs)/host programs.")
	total("fleetio_gsb_created_total", "Ghost superblocks created.", &gst.Created)
	total("fleetio_gsb_harvested_total", "Ghost superblock harvests.", &gst.Harvested)
	total("fleetio_gsb_reclaimed_total", "Ghost superblocks fully reclaimed.", &gst.Reclaimed)
	total("fleetio_gsb_create_failures_total", "Make_Harvestable calls that found no lendable channel.", &gst.CreateFailures)
	total("fleetio_gsb_harvest_misses_total", "Harvest calls that found no compatible gSB.", &gst.HarvestMisses)

	// Fault-injection series, registered only when the run injects faults
	// so fault-free runs export the exact catalogue they always did.
	faulty := r.opt.faultsEnabled()
	if faulty {
		total("fleetio_fault_program_fails_total", "Injected NAND program failures.", &ledger.Device.ProgramFails)
		total("fleetio_fault_erase_fails_total", "Injected NAND erase failures.", &ledger.Device.EraseFails)
		total("fleetio_fault_read_retry_ops_total", "Reads that needed at least one retry round.", &ledger.Device.ReadRetryOps)
		total("fleetio_fault_read_retry_rounds_total", "Total read-retry rounds added.", &ledger.Device.RetryRounds)
		total("fleetio_fault_chip_timeouts_total", "Transient chip timeouts injected on reads.", &ledger.Device.ChipTimeouts)
		total("fleetio_fault_retired_blocks_total", "Blocks permanently retired after failures.", &ledger.Retired)
		total("fleetio_fault_remapped_pages_total", "Failed program slots remapped by the FTL.", &ledger.Remapped)
		total("fleetio_fault_gc_retry_programs_total", "GC migrations re-programmed after a failure.", &ledger.GCRetryPrograms)
		total("fleetio_fault_gc_retry_skips_total", "Failed GC migrations superseded by host writes.", &ledger.GCRetrySkips)
		total("fleetio_fault_write_retries_total", "Host page writes re-dispatched after a program failure.", &ledger.WriteRetries)
	}

	adm := r.dev.Runner().Adm
	if adm != nil {
		total("fleetio_admission_admitted_total", "Harvest-related actions admitted.", &ast.Admitted)
		total("fleetio_admission_filtered_total", "Harvest-related actions rejected by provider policy.", &ast.Filtered)
		total("fleetio_admission_batches_total", "Admission batches flushed.", &ast.Batches)
	}

	// Per-vSSD series, labelled by id and configured name.
	type vssdGauges struct {
		bw, iops, p99, queue, inflight, prio, harvested, free, inGC *obs.Metric
		requests, bytes                                             *obs.Metric
		prevBytes, prevCompleted                                    int64
	}
	vgs := make([]*vssdGauges, len(plat.VSSDs()))
	for i, v := range plat.VSSDs() {
		l := []string{"vssd", strconv.Itoa(i), "name", v.Name()}
		vgs[i] = &vssdGauges{
			bw:        reg.Gauge("fleetio_vssd_bandwidth_bytes_per_second", "Host payload bandwidth over the last sample period.", l...),
			iops:      reg.Gauge("fleetio_vssd_iops", "Completed host requests per second over the last sample period.", l...),
			p99:       reg.Gauge("fleetio_vssd_p99_seconds", "Run-level P99 request latency.", l...),
			queue:     reg.Gauge("fleetio_vssd_queue_depth", "Requests waiting for dispatch.", l...),
			inflight:  reg.Gauge("fleetio_vssd_inflight_pages", "Dispatched-but-incomplete page ops.", l...),
			prio:      reg.Gauge("fleetio_vssd_priority", "Current I/O priority level (1=low..3=high).", l...),
			harvested: reg.Gauge("fleetio_vssd_harvested_channels", "Channels currently harvested via gSBs.", l...),
			free:      reg.Gauge("fleetio_vssd_free_block_fraction", "Free-block fraction across the vSSD's channels.", l...),
			inGC:      reg.Gauge("fleetio_vssd_in_gc", "1 while the vSSD's tenant is collecting.", l...),
			requests:  reg.Counter("fleetio_vssd_requests_total", "Completed host requests.", l...),
			bytes:     reg.Counter("fleetio_vssd_bytes_total", "Host payload bytes completed.", l...),
		}
	}

	// Per-generator workload series: arrival-process state (issue count,
	// composed rate factor, replay progress), labelled like the vssd
	// series. Steady profiles report a constant factor and zero wraps.
	type genGauges struct {
		issued, rate, wraps *obs.Metric
	}
	gens := r.dev.Generators()
	ggs := make([]*genGauges, len(gens))
	for i := range gens {
		v := plat.VSSD(i)
		l := []string{"vssd", strconv.Itoa(i), "name", v.Name()}
		ggs[i] = &genGauges{
			issued: reg.Counter("fleetio_workload_issued_total", "Requests issued by the workload generator.", l...),
			rate:   reg.Gauge("fleetio_workload_rate_factor", "Composed arrival-rate multiplier (phase x diurnal x burst).", l...),
			wraps:  reg.Counter("fleetio_workload_replay_wraps_total", "Times a looped trace replay restarted.", l...),
		}
	}

	var lastAt sim.Time
	s.AddProbe(func(now sim.Time) {
		dt := float64(now-lastAt) / 1e9
		lastAt = now
		simTime.Set(float64(now) / 1e9)
		simEvents.Set(float64(eng.Executed()))
		samples.Add(1)

		fst, gst = ftlm.Stats(), gsbm.Stats()
		if faulty {
			ledger = r.faultLedger()
		}
		if adm != nil {
			ast = adm.Stats()
		}
		for _, set := range totals {
			set()
		}
		writeAmp.Set(fst.WriteAmplification())

		for i, g := range gens {
			ggs[i].issued.Set(float64(g.Issued()))
			ggs[i].rate.Set(g.RateFactor())
			ggs[i].wraps.Set(float64(g.ReplayWraps()))
		}

		for i, v := range plat.VSSDs() {
			g := vgs[i]
			curBytes := v.TotalBytesMoved()
			curCompleted := v.Completed()
			db := curBytes - g.prevBytes
			dc := curCompleted - g.prevCompleted
			// ResetTotals at the measurement boundary rewinds the
			// cumulative counters; restart the deltas from zero.
			if db < 0 {
				db = curBytes
			}
			if dc < 0 {
				dc = curCompleted
			}
			g.prevBytes = curBytes
			g.prevCompleted = curCompleted
			if dt > 0 {
				g.bw.Set(float64(db) / dt)
				g.iops.Set(float64(dc) / dt)
			}
			g.requests.Add(float64(dc))
			g.bytes.Add(float64(db))
			g.p99.Set(float64(v.TotalHist().P99()) / 1e9)
			g.queue.Set(float64(v.QueueLen()))
			g.inflight.Set(float64(v.Inflight()))
			g.prio.Set(float64(v.Priority()))
			g.harvested.Set(float64(gsbm.HarvestedChannels(i)))
			g.free.Set(ftlm.FreeFraction(v.Tenant().Channels()))
			if v.Tenant().InGC() {
				g.inGC.Set(1)
			} else {
				g.inGC.Set(0)
			}
		}
	})

	s.Start(eng, obs.DefaultSamplePeriod)
	return s
}
