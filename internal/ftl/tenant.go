package ftl

import (
	"fmt"
	"math"

	"repro/internal/flash"
	"repro/internal/sim"
)

// lane is one (channel, chip) write frontier. Own lanes refill themselves
// from the channel free pool; harvest lanes drain a fixed backlog of lent
// gSB blocks and close when it is exhausted.
type lane struct {
	ch, chip int
	active   int // block index, -1 when none
	backlog  []int
	own      bool // refills from the free pool
	gsb      int  // gSB id for harvest lanes, -1 otherwise
	closed   bool
}

// Tenant is the per-vSSD FTL: an LPN→PPA map, write lanes, and a GC state
// machine. LPNs are page-sized logical addresses local to the tenant.
type Tenant struct {
	mgr *Manager
	id  int
	// channels this tenant may allocate its own blocks from.
	channels []int
	// l2p maps LPN -> Manager.pageIndex of its physical page, -1 when unmapped.
	l2p []int32

	lanes  []*lane
	cursor int
	// gcLanes are dedicated write frontiers for GC migration (one per
	// owned channel). They may allocate from the reserved blocks and are
	// never written by host traffic, so collection always has somewhere to
	// put valid data and can't be starved by the host racing it for pages.
	gcLanes  []*lane
	gcCursor int

	logicalPages int

	// GC state.
	gcJobs int
	// badBlocks counts owned blocks flagged for retirement (program/erase
	// failures) that GC has not yet retired; while non-zero, maybeGC keeps
	// collecting even when free space is plentiful.
	badBlocks int
	// gcTarget, when above the manager threshold, makes GC keep collecting
	// until the free fraction reaches it. The gSB manager raises it for
	// tenants that are lending blocks so the §3.6 free floor stays
	// satisfiable and harvesting supply doesn't starve.
	gcTarget float64

	// Fraction of logical pages currently mapped (for capacity stats).
	mappedPages int64

	// allocFailEpoch is the Manager.epoch at which the last host
	// allocation failed without changing anything; while it still matches,
	// the next one fails the same way and is answered without the scan.
	allocFailEpoch uint64

	// gcQuietGen is the Manager.freeGen at which maybeGC last returned
	// early; while it still matches, maybeGC returns in O(1). SetGCTarget,
	// SetChannels and markBad, which write the early return's tenant-side
	// inputs, clear it (retireBlock only lowers a badBlocks that a markBad
	// raised, and no early return is taken while it is raised).
	gcQuietGen uint64

	stats Stats
}

// NewTenant registers a tenant with id (must equal len(mgr.Tenants()))
// owning the given channels and a logical space of logicalPages pages.
func NewTenant(mgr *Manager, id int, channels []int, logicalPages int) *Tenant {
	if id != len(mgr.tenants) {
		panic(fmt.Sprintf("ftl: tenant id %d out of order (have %d)", id, len(mgr.tenants)))
	}
	if logicalPages <= 0 {
		panic("ftl: non-positive logical size")
	}
	if logicalPages > math.MaxInt32 {
		panic(fmt.Sprintf("ftl: logical size of %d pages, a back-pointer names at most %d", logicalPages, math.MaxInt32))
	}
	t := &Tenant{
		mgr:          mgr,
		id:           id,
		channels:     append([]int(nil), channels...),
		l2p:          make([]int32, logicalPages),
		logicalPages: logicalPages,
	}
	for i := range t.l2p {
		t.l2p[i] = -1
	}
	for _, ch := range channels {
		for chip := 0; chip < mgr.cfg.ChipsPerChannel; chip++ {
			t.lanes = append(t.lanes, &lane{ch: ch, chip: chip, active: -1, own: true, gsb: -1})
		}
		t.gcLanes = append(t.gcLanes, &lane{ch: ch, chip: 0, active: -1, own: true, gsb: -1})
	}
	mgr.tenants = append(mgr.tenants, t)
	if mgr.victimIdx != nil {
		mgr.victimIdx.addTenant()
	}
	return t
}

// ID returns the tenant id.
func (t *Tenant) ID() int { return t.id }

// Channels returns the channels the tenant allocates its own blocks from.
func (t *Tenant) Channels() []int { return t.channels }

// LogicalPages returns the tenant's logical capacity in pages.
func (t *Tenant) LogicalPages() int { return t.logicalPages }

// MappedPages returns how many logical pages currently hold data.
func (t *Tenant) MappedPages() int64 { return t.mappedPages }

// InGC reports whether a GC job is currently running for this tenant —
// the In_GC bit of the RL state.
func (t *Tenant) InGC() bool { return t.gcJobs > 0 }

// sealActive detaches block idx from any lane currently writing it (the
// fault path seals failed blocks so no further programs land on them).
func (t *Tenant) sealActive(idx int) {
	for _, ln := range t.lanes {
		if ln.active == idx {
			ln.active = -1
		}
	}
	for _, ln := range t.gcLanes {
		if ln.active == idx {
			ln.active = -1
		}
	}
}

// SetGCTarget raises (or clears, with 0) the tenant's free-fraction goal.
func (t *Tenant) SetGCTarget(frac float64) {
	t.gcTarget = frac
	t.gcQuietGen = 0
	t.mgr.epoch++
	t.maybeGC()
}

// freeFraction returns the free-block fraction over the tenant's channels.
func (t *Tenant) freeFraction() float64 { return t.mgr.FreeFraction(t.channels) }

// SetChannels replaces the tenant's owned channel set (used by the
// Adaptive and SSDKeeper baselines that re-partition channels). Lanes for
// removed channels are closed; lanes for added channels are created.
func (t *Tenant) SetChannels(channels []int) {
	t.mgr.epoch++
	t.gcQuietGen = 0
	t.channels = append([]int(nil), channels...)
	inSet := make(map[int]bool, len(channels))
	for _, ch := range channels {
		inSet[ch] = true
	}
	kept := t.lanes[:0]
	have := make(map[int]bool)
	for _, ln := range t.lanes {
		if !ln.own {
			kept = append(kept, ln)
			continue
		}
		if inSet[ln.ch] {
			kept = append(kept, ln)
			have[ln.ch] = true
			continue
		}
		// Dropped own lane: seal its open block so GC can reclaim it; the
		// mapped data stays readable until overwritten or collected.
		if ln.active >= 0 {
			b := &t.mgr.blocks[ln.active]
			b.state = blockFull
			t.mgr.reindex(ln.active)
			ln.active = -1
		}
	}
	t.lanes = kept
	for _, ch := range channels {
		if !have[ch] {
			for chip := 0; chip < t.mgr.cfg.ChipsPerChannel; chip++ {
				t.lanes = append(t.lanes, &lane{ch: ch, chip: chip, active: -1, own: true, gsb: -1})
			}
		}
	}
	if t.cursor >= len(t.lanes) {
		t.cursor = 0
	}
	// Rebuild the GC frontiers the same way.
	keptGC := t.gcLanes[:0]
	haveGC := make(map[int]bool)
	for _, ln := range t.gcLanes {
		if inSet[ln.ch] {
			keptGC = append(keptGC, ln)
			haveGC[ln.ch] = true
			continue
		}
		if ln.active >= 0 {
			b := &t.mgr.blocks[ln.active]
			b.state = blockFull
			t.mgr.reindex(ln.active)
			ln.active = -1
		}
	}
	t.gcLanes = keptGC
	for _, ch := range channels {
		if !haveGC[ch] {
			t.gcLanes = append(t.gcLanes, &lane{ch: ch, chip: 0, active: -1, own: true, gsb: -1})
		}
	}
	if t.gcCursor >= len(t.gcLanes) {
		t.gcCursor = 0
	}
}

// AddHarvestLanes attaches the lent blocks of a harvested gSB as write
// lanes. Blocks are grouped by (channel, chip).
func (t *Tenant) AddHarvestLanes(gsbID int, blocks []int) {
	t.mgr.epoch++
	group := make(map[[2]int][]int)
	var order [][2]int
	for _, idx := range blocks {
		b := &t.mgr.blocks[idx]
		if b.state != blockLent {
			panic(fmt.Sprintf("ftl: harvesting non-lent block %v (state %d)", b.id, b.state))
		}
		b.user = int32(t.id)
		key := [2]int{int(b.id.Channel), int(b.id.Chip)}
		if _, seen := group[key]; !seen {
			order = append(order, key)
		}
		group[key] = append(group[key], idx)
	}
	for _, key := range order {
		t.lanes = append(t.lanes, &lane{
			ch: key[0], chip: key[1], active: -1,
			backlog: group[key], own: false, gsb: gsbID,
		})
	}
}

// CloseHarvestLanes stops new writes into the given gSB's lanes and
// returns still-clean backlog blocks to the manager (they go back to the
// home pool). Blocks already written remain until GC reclaims them.
func (t *Tenant) CloseHarvestLanes(gsbID int) (cleanReturned []int) {
	t.mgr.epoch++
	kept := t.lanes[:0]
	for _, ln := range t.lanes {
		if ln.gsb != gsbID {
			kept = append(kept, ln)
			continue
		}
		for _, idx := range ln.backlog {
			b := &t.mgr.blocks[idx]
			b.user = -1
			t.mgr.ReturnCleanBlock(idx)
			cleanReturned = append(cleanReturned, idx)
		}
		if ln.active >= 0 {
			// A partially written block: seal it so GC can reclaim it.
			b := &t.mgr.blocks[ln.active]
			if b.writePtr == 0 {
				b.user = -1
				t.mgr.ReturnCleanBlock(ln.active)
				cleanReturned = append(cleanReturned, ln.active)
			} else {
				b.state = blockFull
				t.mgr.reindex(ln.active)
			}
		}
	}
	t.lanes = kept
	if t.cursor >= len(t.lanes) && len(t.lanes) > 0 {
		t.cursor = 0
	}
	return cleanReturned
}

// openLane ensures the lane has an open block, pulling from its backlog or
// the channel free pool. Reports false when the lane is (now) closed or
// allocation failed.
func (t *Tenant) openLane(ln *lane, forGC bool) bool {
	if ln.closed {
		return false
	}
	if ln.active >= 0 {
		return true
	}
	if ln.own {
		idx, ok := t.mgr.allocBlock(ln.ch, ln.chip, forGC)
		if !ok {
			return false
		}
		b := &t.mgr.blocks[idx]
		b.state = blockOpen
		b.owner = int32(t.id)
		b.user = int32(t.id)
		t.initBlockPages(b)
		ln.active = idx
		return true
	}
	// Harvest lane: pop the backlog, or close — a write either way.
	t.mgr.epoch++
	for len(ln.backlog) > 0 {
		idx := ln.backlog[0]
		ln.backlog = ln.backlog[1:]
		b := &t.mgr.blocks[idx]
		if b.state != blockLent {
			continue
		}
		b.state = blockOpen
		b.user = int32(t.id)
		t.initBlockPages(b)
		ln.active = idx
		return true
	}
	ln.closed = true
	return false
}

func (t *Tenant) initBlockPages(b *blockInfo) {
	n := t.mgr.cfg.PagesPerBlock
	// Reuse the capacity from the block's previous erase cycle; only a
	// block's first-ever open allocates.
	if cap(b.pageLPN) >= n {
		b.pageLPN = b.pageLPN[:n]
	} else {
		b.pageLPN = make([]int32, n)
	}
	for i := range b.pageLPN {
		b.pageLPN[i] = invalidPPA
	}
}

// AllocatePage maps lpn to a fresh physical page and returns its address.
// The old mapping (if any) is invalidated. forGC allocations may use the
// reserved blocks. ok is false when no space is available anywhere (the
// caller should back off and let GC run).
//
// A stalled host write polls this every retryDelay, thousands of pages at
// a time on a full device, so a host failure that changed nothing is
// remembered by epoch (see Manager.epoch) and repeated in O(1) until some
// state it read changes. GC allocations are never remembered: they are
// few, and they scan different lanes under a different reserve.
func (t *Tenant) AllocatePage(lpn int, forGC bool) (flash.PPA, bool) {
	if lpn < 0 || lpn >= t.logicalPages {
		panic(fmt.Sprintf("ftl: LPN %d out of range [0,%d)", lpn, t.logicalPages))
	}
	if forGC {
		return t.allocateScan(lpn, true)
	}
	m := t.mgr
	if t.allocFailEpoch != m.epoch {
		before := m.epoch
		ppa, ok := t.allocateScan(lpn, false)
		if ok {
			return ppa, true
		}
		if m.epoch == before {
			t.allocFailEpoch = before
		}
	}
	t.stats.AllocStalls++
	m.stats.AllocStalls++
	return flash.PPA{}, false
}

// RepeatAllocFailures answers the next n host allocations in one step when
// the failure memo holds: the last one failed at the current epoch, so each
// of the next n would fail the same way, changing nothing but AllocStalls.
// It counts them and reports true. Otherwise it does nothing and reports
// false, and the caller allocates page by page.
func (t *Tenant) RepeatAllocFailures(n int) bool {
	if t.allocFailEpoch != t.mgr.epoch {
		return false
	}
	t.stats.AllocStalls += int64(n)
	t.mgr.stats.AllocStalls += int64(n)
	return true
}

// allocateScan is AllocatePage without the failure memo: the lane scan and
// the GC kick.
func (t *Tenant) allocateScan(lpn int, forGC bool) (flash.PPA, bool) {
	// GC migration writes go to the dedicated GC frontiers (which may use
	// the reserve); host writes use the regular striped lanes. A tenant
	// with no owned channels (pure harvester) falls back to its harvest
	// lanes for GC traffic.
	lanes, cursor := t.lanes, &t.cursor
	if forGC && len(t.gcLanes) > 0 {
		lanes, cursor = t.gcLanes, &t.gcCursor
	}
	if len(lanes) == 0 {
		return flash.PPA{}, false
	}
	for tries := 0; tries < len(lanes); tries++ {
		if *cursor >= len(lanes) {
			*cursor = 0
		}
		ln := lanes[*cursor]
		if *cursor++; *cursor == len(lanes) {
			*cursor = 0
		}
		if !t.openLane(ln, forGC) {
			continue
		}
		b := &t.mgr.blocks[ln.active]
		t.mgr.epoch++
		page := int(b.writePtr)
		b.writePtr++
		t.invalidate(lpn)
		b.pageLPN[page] = int32(lpn)
		b.valid++
		t.l2p[lpn] = t.mgr.pageIndex(ln.active, page)
		t.mappedPages++
		if int(b.writePtr) == t.mgr.cfg.PagesPerBlock {
			b.state = blockFull
			t.mgr.reindex(ln.active)
			ln.active = -1
		}
		t.maybeGC()
		return b.id.page(page), true
	}
	t.maybeGC()
	return flash.PPA{}, false
}

// PrefillInOrder maps LPNs 0, 1, … n-1 of a tenant that maps nothing yet,
// with exactly the effects of AllocatePage(lpn, false) for each in turn,
// and returns how many it mapped. It stops early, mapping fewer, at the
// first page whose lane has no open block and cannot open one, and after
// the first page at which maybeGC does more than return early; the caller
// maps the rest with AllocatePage. It maps nothing when the tenant already
// maps a page.
//
// The loop is allocateScan's, less what cannot happen before it stops: no
// LPN is mapped yet, so none needs invalidating; every page goes to the
// lane at the cursor, since the first lane that fails to open ends the loop
// (a failed open changes nothing an AllocatePage retry from the same
// cursor does not change too); and maybeGC runs only when freeGen has moved
// since it last returned early, which is maybeGC's own first test.
func (t *Tenant) PrefillInOrder(n int) int {
	m := t.mgr
	lanes := t.lanes
	if t.mappedPages != 0 || len(lanes) == 0 {
		return 0
	}
	ppb := int32(m.cfg.PagesPerBlock)
	for lpn := range min(n, t.logicalPages) {
		if t.cursor >= len(lanes) {
			t.cursor = 0
		}
		ln := lanes[t.cursor]
		if ln.active < 0 && !t.openLane(ln, false) {
			return lpn
		}
		if t.cursor++; t.cursor == len(lanes) {
			t.cursor = 0
		}
		b := &m.blocks[ln.active]
		m.epoch++
		page := b.writePtr
		b.writePtr++
		b.pageLPN[page] = int32(lpn)
		b.valid++
		t.l2p[lpn] = m.pageIndex(ln.active, int(page))
		t.mappedPages++
		if b.writePtr == ppb {
			b.state = blockFull
			m.reindex(ln.active)
			ln.active = -1
		}
		if t.gcQuietGen != m.freeGen {
			t.maybeGC()
			if t.gcQuietGen != m.freeGen {
				return lpn + 1
			}
		}
	}
	return min(n, t.logicalPages)
}

// Lookup returns the physical address of lpn's data.
func (t *Tenant) Lookup(lpn int) (flash.PPA, bool) {
	if lpn < 0 || lpn >= t.logicalPages {
		return flash.PPA{}, false
	}
	enc := t.l2p[lpn]
	if enc < 0 {
		return flash.PPA{}, false
	}
	idx, page := t.mgr.pageAt(enc)
	return t.mgr.blocks[idx].id.page(page), true
}

// Trim unmaps lpn, invalidating its physical page.
func (t *Tenant) Trim(lpn int) {
	if lpn < 0 || lpn >= t.logicalPages {
		return
	}
	if t.l2p[lpn] >= 0 {
		t.invalidate(lpn)
		t.l2p[lpn] = -1
	}
}

// invalidate clears the physical page currently backing lpn (if any)
// without touching the l2p entry; callers overwrite or reset it.
func (t *Tenant) invalidate(lpn int) {
	enc := t.l2p[lpn]
	if enc < 0 {
		return
	}
	idx, page := t.mgr.pageAt(enc)
	b := &t.mgr.blocks[idx]
	if b.user == int32(t.id) && b.pageLPN[page] == int32(lpn) {
		b.pageLPN[page] = invalidPPA
		b.valid--
		t.mgr.epoch++
		t.mappedPages--
		t.mgr.reindex(idx)
	}
}

// maybeGC starts GC jobs when the tenant's channel set runs low on free
// blocks — below the lazy threshold fraction, or close enough to the host
// allocation reserve that writes are about to stall (which matters on the
// small devices used in tests). Up to gcConcurrency victims are collected
// in parallel; jobs re-arm themselves on completion. It runs after every
// page a tenant allocates, so an early return is remembered by freeGen
// (see Manager.freeGen) and repeated in O(1) until a block moves.
func (t *Tenant) maybeGC() {
	if t.mgr.eng == nil || t.mgr.gcThreshold <= 0 || t.gcQuietGen == t.mgr.freeGen {
		return
	}
	for t.gcJobs < gcConcurrency {
		free := 0
		for _, ch := range t.channels {
			free += t.mgr.freeCount[ch]
		}
		nearReserve := len(t.channels) > 0 && free <= (gcReserve+1)*len(t.channels)
		goal := t.mgr.gcThreshold
		if t.gcTarget > goal {
			goal = t.gcTarget
		}
		if t.freeFraction() > goal && !nearReserve && t.badBlocks == 0 {
			t.gcQuietGen = t.mgr.freeGen
			return
		}
		victim := t.pickVictim()
		if victim < 0 {
			return
		}
		t.mgr.rec.GCRun(t.id, victim, int(t.mgr.blocks[victim].valid), t.mgr.blocks[victim].harvested)
		t.mgr.epoch++
		t.mgr.blocks[victim].state = blockGC
		t.mgr.reindex(victim)
		t.gcJobs++
		t.mgr.stats.GCRuns++
		t.collect(victim)
	}
}

// gcPriority escalates collection above host traffic when free space is
// critically low; otherwise GC runs strictly in the background.
func (t *Tenant) gcPriority() int {
	if t.freeFraction() < t.mgr.gcThreshold*0.6 {
		return PriorityHigh + 1
	}
	return priorityGC
}

// pickVictim chooses the best Full block owned by this tenant:
// harvested/reclaimed blocks are strictly preferred (the §3.7 policy);
// ties and the rest order by fewest valid pages, then lowest block index.
// It reads the Manager's victim index (victim.go), a few words a pick,
// because a walk over the tenant's Full blocks, about 1 340 a pick on a
// write-heavy pair, costs ~10% of that pair's CPU.
func (t *Tenant) pickVictim() int { return t.mgr.victims().pick(t.id) }

// gcJob is the state of one victim collection: the valid-page worklist and
// the migration pipeline cursor. Jobs are recycled through the Manager's
// free list (keeping the pages scratch), and every pipeline stage is a
// package-level handler with the job riding in the op's Ctx slot, so a
// steady-state GC run performs no per-page allocations.
type gcJob struct {
	t           *Tenant
	victim      int
	b           *blockInfo
	pages       []int  // valid page indices at job start (reused scratch)
	next        int    // cursor into pages
	outstanding int    // migrations in flight
	link        *gcJob // manager free-list link
}

// collect migrates the victim's valid pages (reads + re-programs through
// the data owner's allocator, which lands harvested data in the
// harvester's own space per §3.7) and then erases it. Migrations are
// pipelined up to gcPipeline pages deep, and the whole job escalates above
// host priority when free space is critically low.
func (t *Tenant) collect(victim int) {
	b := &t.mgr.blocks[victim]
	j := t.mgr.acquireGCJob()
	j.t = t
	j.victim = victim
	j.b = b
	j.pages = j.pages[:0]
	for p, lpn := range b.pageLPN[:b.writePtr] {
		if lpn != invalidPPA {
			j.pages = append(j.pages, p)
		}
	}
	j.next = 0
	j.outstanding = 0
	j.launch()
	if j.outstanding == 0 {
		t.eraseVictim(j)
	}
}

// launch tops the migration pipeline back up to gcPipeline, skipping pages a
// host overwrite invalidated since the job started.
func (j *gcJob) launch() {
	for j.outstanding < gcPipeline && j.next < len(j.pages) {
		p := j.pages[j.next]
		j.next++
		if j.b.pageLPN[p] == invalidPPA {
			continue
		}
		j.outstanding++
		j.migrate(p)
	}
}

// migrate issues the read half of one page migration. Priority is
// re-evaluated per operation so a job started in the background escalates
// once free space turns critical.
func (j *gcJob) migrate(p int) {
	t := j.t
	t.mgr.stats.GCReads++
	op := t.mgr.dev.AcquireOp()
	op.Kind = flash.OpRead
	op.Addr = j.b.id.page(p)
	op.Priority = t.gcPriority()
	op.Done = gcReadDone
	op.Ctx = j
	op.CtxI = int64(p)
	t.mgr.submit(op)
}

// finish retires one migration (or skipped page) and either refills the
// pipeline or, when the worklist has drained, erases the victim.
func (j *gcJob) finish() {
	j.outstanding--
	if j.next >= len(j.pages) && j.outstanding == 0 {
		j.t.eraseVictim(j)
		return
	}
	j.launch()
}

// gcReadDone: the migration read finished; try to program the data to its
// new home. ctx is the *gcJob, ctxI the victim page index. Reads never
// report a failure status (retry latency is folded into the cell time).
func gcReadDone(ctx any, ctxI int64, _ sim.Time, _ flash.OpStatus) {
	gcTryProgram(sim.EventArg{P: ctx, I: ctxI}, 0)
}

// gcTryProgram allocates a destination page and issues the program. The
// page may have been invalidated by a host overwrite racing the migration,
// so the mapping is re-checked on entry and on every retry. Allocation
// retries until space exists (only a pathologically full device ever waits
// here) — the victim must never be erased while it still holds valid data.
func gcTryProgram(arg sim.EventArg, _ sim.Time) {
	j := arg.P.(*gcJob)
	p := int(arg.I)
	b := j.b
	if b.pageLPN[p] == invalidPPA {
		j.finish()
		return
	}
	// The victim is in blockGC state and cannot be rewritten, so the data
	// owner and LPN are stable across retries.
	dataTenant := j.t.mgr.tenants[b.user]
	lpn := int(b.pageLPN[p])
	if dst, ok := dataTenant.AllocatePage(lpn, true); ok {
		j.programMigrated(dataTenant, lpn, dst, j.t.gcPriority())
		return
	}
	j.t.mgr.ScheduleRetry(gcTryProgram, arg)
}

func (j *gcJob) programMigrated(dataTenant *Tenant, lpn int, dst flash.PPA, prio int) {
	t := j.t
	t.mgr.stats.GCPrograms++
	dataTenant.stats.GCPrograms++
	op := t.mgr.dev.AcquireOp()
	op.Kind = flash.OpProgram
	op.Addr = dst
	op.Priority = prio
	op.Done = gcProgramDone
	op.Ctx = j
	// Carry (data tenant, LPN) so a program failure can re-issue the
	// migration without touching the (possibly recycled) op.
	op.CtxI = int64(dataTenant.id)<<32 | int64(lpn)
	t.mgr.submit(op)
}

// gcProgramDone finishes one migration program. On a program failure the
// FTL has already repaired the mapping (OnFault runs first), so the lost
// page is re-migrated through gcRetryProgram; the job stays outstanding
// until the page lands somewhere or a host write supersedes it.
func gcProgramDone(ctx any, ctxI int64, _ sim.Time, status flash.OpStatus) {
	if status == flash.StatusProgramFail {
		gcRetryProgram(sim.EventArg{P: ctx, I: ctxI}, 0)
		return
	}
	ctx.(*gcJob).finish()
}

// gcRetryProgram re-issues a failed GC migration for the (tenant, LPN)
// packed in arg.I. If the LPN has been remapped since the failure, a
// racing host write owns fresher data and the migration is dropped;
// otherwise a new destination page is allocated (retrying on allocation
// stall like gcTryProgram) and programmed.
func gcRetryProgram(arg sim.EventArg, _ sim.Time) {
	j := arg.P.(*gcJob)
	m := j.t.mgr
	dataTenant := m.tenants[int(arg.I>>32)]
	lpn := int(arg.I & 0xFFFFFFFF)
	if dataTenant.l2p[lpn] != -1 {
		m.stats.GCRetrySkips++
		j.finish()
		return
	}
	if dst, ok := dataTenant.AllocatePage(lpn, true); ok {
		m.stats.GCRetryPrograms++
		j.programMigrated(dataTenant, lpn, dst, j.t.gcPriority())
		return
	}
	m.ScheduleRetry(gcRetryProgram, arg)
}

// eraseVictim erases the (now fully invalid) victim and returns it to the
// free pool, clearing the HBT bit (§3.7: "blocks are marked as regular
// after erased by GC").
func (t *Tenant) eraseVictim(j *gcJob) {
	t.mgr.stats.Erases++
	t.stats.Erases++
	op := t.mgr.dev.AcquireOp()
	op.Kind = flash.OpErase
	op.Addr = j.b.id.page(0)
	op.Priority = priorityGC
	op.Done = gcEraseDone
	op.Ctx = j
	t.mgr.submit(op)
}

// gcEraseDone retires the whole job: the block returns to the free pool —
// or, when the erase failed or the block was already flagged bad, to the
// bad-block table — the gSB manager is notified either way (a retired
// gSB block still completes the gSB's pending-block accounting), and GC
// re-arms. The job is recycled first so a re-armed collection reuses it.
func gcEraseDone(ctx any, _ int64, _ sim.Time, status flash.OpStatus) {
	j := ctx.(*gcJob)
	t, victim, gsbID := j.t, j.victim, int(j.b.gsb)
	bad := j.b.bad || status == flash.StatusEraseFail
	m := t.mgr
	m.releaseGCJob(j)
	if bad {
		m.retireBlock(victim)
	} else {
		m.releaseBlock(victim)
	}
	if m.onBlockErased != nil {
		m.onBlockErased(victim, gsbID)
	}
	t.gcJobs--
	m.epoch++
	t.maybeGC()
}

// RecordHostProgram bumps host-write accounting (called by the vSSD layer
// when it submits a host program for this tenant).
func (t *Tenant) RecordHostProgram() {
	t.stats.HostPrograms++
	t.mgr.stats.HostPrograms++
}

// Prefill maps fillFrac of the logical space instantly (no simulated I/O),
// overwriting overwriteFrac of what it wrote so GC has invalid pages to
// reclaim. It mirrors the paper's warm-up ("consume at least 50% of the
// free blocks").
func (t *Tenant) Prefill(fillFrac, overwriteFrac float64, rng *sim.RNG) error {
	if !(fillFrac >= 0 && fillFrac <= 1) || !(overwriteFrac >= 0 && overwriteFrac <= 1) {
		return fmt.Errorf("ftl: prefill fractions out of range")
	}
	// Prefill happens at setup time, before workloads are scheduled, so it
	// may drain the engine to let GC reclaim space when allocation stalls.
	alloc := func(lpn int) error {
		if _, ok := t.AllocatePage(lpn, false); ok {
			return nil
		}
		for try := 0; try < 64; try++ {
			t.mgr.eng.Run()
			if _, ok := t.AllocatePage(lpn, false); ok {
				return nil
			}
		}
		return fmt.Errorf("ftl: prefill ran out of space at lpn %d", lpn)
	}
	n := int(float64(t.logicalPages) * fillFrac)
	for lpn := 0; lpn < n; lpn++ {
		if err := alloc(lpn); err != nil {
			return err
		}
	}
	rewrites := int(float64(n) * overwriteFrac)
	for i := 0; i < rewrites; i++ {
		if err := alloc(rng.Intn(n)); err != nil {
			return err
		}
	}
	return nil
}
