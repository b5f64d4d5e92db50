package fleet

import (
	"repro/internal/sim"
	"repro/internal/vssd"
)

// migration tracks one in-flight cold migration through its three phases:
// drain (source generator stopped, waiting for queue+inflight to empty),
// copy (mapped pages read on the source and written on the destination as
// real simulated I/O), and cutover (trim the source, free its slot,
// restart the generator on the destination). Phase transitions happen
// only at epoch boundaries on the control-plane thread; the copiers run
// inside their shards' engines between barriers.
type migration struct {
	tenant   *Tenant
	src, dst int // device ids; dst slot is reserved at start
	srcVSSD  *vssd.VSSD
	dstVSSD  *vssd.VSSD
	started  sim.Time

	// tierMove classifies the migration on a hybrid rack: +1 promote
	// (into a lower tier index, i.e. the fast tier), -1 demote, 0 within
	// one tier.
	tierMove int8

	srcCopy *copier
	dstCopy *copier
}

// copierConcurrency is the closed-loop depth of one migration copier; two
// requests keep the stream pipelined without monopolizing the device.
const copierConcurrency = 2

// copierChunkPages is the request size of the copy stream — large
// sequential transfers, like a real migration engine would issue.
const copierChunkPages = 16

// copier drives one side of a migration copy as a closed-loop sequential
// request stream against a vSSD, entirely inside that vSSD's shard engine.
// done flips on the last completion; the control plane polls it at epoch
// boundaries.
type copier struct {
	v        *vssd.VSSD
	write    bool
	next     int // next LPN to issue
	total    int // pages to move
	inflight int
	done     bool
	onDone   func(*vssd.Request, sim.Time)
}

// newCopier starts the stream. A zero-page copy completes immediately.
func newCopier(v *vssd.VSSD, write bool, totalPages int) *copier {
	c := &copier{v: v, write: write, total: totalPages}
	c.onDone = func(_ *vssd.Request, _ sim.Time) {
		c.inflight--
		c.pump()
	}
	if c.total <= 0 {
		c.done = true
		return c
	}
	for i := 0; i < copierConcurrency && c.next < c.total; i++ {
		c.issue()
	}
	return c
}

// pump issues the next chunk or marks the stream done.
func (c *copier) pump() {
	if c.next < c.total {
		c.issue()
		return
	}
	if c.inflight == 0 {
		c.done = true
	}
}

func (c *copier) issue() {
	n := copierChunkPages
	if c.next+n > c.total {
		n = c.total - c.next
	}
	r := c.v.AcquireRequest()
	r.Write = c.write
	r.LPN = c.next
	r.Pages = n
	r.OnComplete = c.onDone
	c.next += n
	c.inflight++
	c.v.Submit(r)
}

// maybeMigrate starts at most one migration per epoch: the busiest
// migratable tenant moves from the hottest device to the coolest device
// with a free slot, when the utilization gap justifies the disruption.
func (f *Fleet) maybeMigrate(now sim.Time) {
	if !f.canMigrate() {
		return
	}
	hot, cool := -1, -1
	for dev := range f.shards {
		if f.victim(dev, dev+1, now, hottest) != nil && (hot < 0 || f.shards[dev].epochUtil > f.shards[hot].epochUtil) {
			hot = dev
		}
		if f.hasSlot(dev) && (cool < 0 || f.shards[dev].epochUtil < f.shards[cool].epochUtil) {
			cool = dev
		}
	}
	if hot < 0 || cool < 0 || hot == cool {
		return
	}
	if f.shards[hot].epochUtil-f.shards[cool].epochUtil < migrateGap {
		return
	}
	f.startMigration(f.victim(hot, hot+1, now, hottest), cool, now)
}

// startMigration reserves the destination slot and begins the drain.
// Any migration that crosses a tier boundary — a tier policy's move or
// plain load balancing on a hybrid rack — enters the promote/demote
// ledger.
func (f *Fleet) startMigration(tn *Tenant, dst int, now sim.Time) {
	f.shards[dst].slotsUsed++
	m := &migration{tenant: tn, src: tn.device, dst: dst, srcVSSD: tn.vssd, started: now}
	if st, dt := f.shards[m.src].tier, f.shards[dst].tier; dt < st {
		m.tierMove = 1
		f.led.PromotesStarted++
	} else if dt > st {
		m.tierMove = -1
		f.led.DemotesStarted++
	}
	tn.state = stateDraining
	tn.gen.Stop()
	f.migs = append(f.migs, m)
	f.led.MigrationsStarted++
}

// stepMigrations advances every in-flight migration one epoch: drained
// sources start their copy, finished copies cut over. Completed
// migrations are compacted out of the slice in order.
func (f *Fleet) stepMigrations(now sim.Time) {
	live := f.migs[:0]
	for _, m := range f.migs {
		switch m.tenant.state {
		case stateDraining:
			if m.srcVSSD.QueueLen() == 0 && m.srcVSSD.Inflight() == 0 {
				f.beginCopy(m)
			}
			live = append(live, m)
		case stateCopying:
			if m.srcCopy.done && m.dstCopy.done {
				f.cutOver(m, now)
			} else {
				live = append(live, m)
			}
		}
	}
	f.migs = live
}

// beginCopy creates the destination vSSD and launches both copy streams.
// The read stream covers the source's mapped page count starting at LPN 0
// (unmapped holes read as zero-fill, like any sparse image copy); the
// write stream programs the same number of pages on the destination,
// which doubles as the migrated tenant's prefill.
func (f *Fleet) beginCopy(m *migration) {
	tn := m.tenant
	tn.state = stateCopying
	tn.device = m.dst
	tn.migrations++ // addTenantVSSD skips prefill for a migration target
	pages := int(m.srcVSSD.Tenant().MappedPages())
	m.dstVSSD = f.addTenantVSSD(f.shards[m.dst], tn)
	if lim := m.dstVSSD.Tenant().LogicalPages(); pages > lim {
		pages = lim
	}
	m.srcCopy = newCopier(m.srcVSSD, false, pages)
	m.dstCopy = newCopier(m.dstVSSD, true, pages)
}

// cutOver finishes a migration: the source mapping is trimmed (its blocks
// become GC-reclaimable), the source slot frees, the tenant's generator
// restarts against the destination vSSD with its own RNG stream intact,
// and the drain+copy window is charged to the tenant as downtime.
func (f *Fleet) cutOver(m *migration, now sim.Time) {
	tn := m.tenant
	f.shards[m.src].release(tn)
	tn.vssd = m.dstVSSD
	tn.lastBytes = m.dstVSSD.TotalBytesMoved()
	// The destination's latency history so far is the bulk copy stream,
	// not tenant traffic; reset it so post-migration P99 (the tiered
	// tail-latency roll-up) measures the new placement only.
	m.dstVSSD.TotalHist().Reset()
	tn.state = stateRunning
	tn.placedAt = now
	f.shards[m.dst].resident = append(f.shards[m.dst].resident, tn)
	tn.gen.Record(nil) // the stopped source generator lets go of the recorder
	tn.gen = f.shards[m.dst].dev.Drive(m.dstVSSD.ID(), tn.prof, tn.rng, tn.rec)
	f.led.MigrationsCompleted++
	f.led.Downtime += now - m.started
	if m.tierMove != 0 {
		if m.tierMove > 0 {
			f.led.Promotes++
		} else {
			f.led.Demotes++
		}
		f.led.CrossTierBytes += int64(m.dstCopy.total) * int64(tn.pageSize)
	}
}
