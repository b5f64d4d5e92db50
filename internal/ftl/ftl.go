// Package ftl implements the flash translation layer of the FleetIO
// reproduction: logical-to-physical mapping with out-of-place updates,
// write allocation striped across the channels a tenant owns, block
// lending for ghost superblocks, and lazy greedy garbage collection that
// prioritizes harvested/reclaimed blocks (§3.7 of the paper, including the
// Harvested Block Table).
//
// One Manager exists per device and tracks every erase block. One Tenant
// exists per vSSD and owns a logical page space plus write "lanes" — one
// per (channel, chip) it may write to, covering both its own channels and
// any harvested ghost-superblock blocks.
package ftl

import (
	"fmt"
	"math"

	"repro/internal/flash"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Scheduling priorities used for flash ops. Host requests use
// PriorityLow..PriorityHigh (the Set_Priority action moves a vSSD between
// them); GC traffic runs strictly below all host traffic.
const (
	priorityGC   = 0
	PriorityLow  = 1
	PriorityMed  = 2
	PriorityHigh = 3
)

// blockState is the lifecycle state of an erase block.
type blockState uint8

// Block lifecycle states.
const (
	// blockFree: erased, in its channel's free pool.
	blockFree blockState = iota
	// blockLent: pulled from the free pool into a ghost superblock, not
	// yet written (clean); owned by the home tenant, usable by a harvester.
	blockLent
	// blockOpen: actively being written (has a write pointer).
	blockOpen
	// blockFull: fully written; candidate for GC.
	blockFull
	// blockGC: currently being collected (excluded from victim selection).
	blockGC
	// blockBad: retired after a program or erase failure; terminal. Bad
	// blocks never return to a free pool — the device permanently loses
	// their capacity, exactly as a real FTL grows its bad-block table.
	blockBad
)

const invalidPPA = int32(-1)

// Garbage-collection parameters.
const (
	// lazyGCThreshold is the free-block fraction below which a tenant
	// starts collecting (the paper's lazy GC, Table 3 text: 20%).
	lazyGCThreshold = 0.20
	// gcReserve is the number of free blocks per channel reserved for GC
	// migration so collection can always make forward progress.
	gcReserve = 2
	// gcConcurrency bounds the victim blocks a tenant collects at once
	// (real FTLs collect per-channel in parallel).
	gcConcurrency = 4
	// gcPipeline bounds the in-flight page migrations per GC job.
	gcPipeline = 8
)

// retryDelay is the one backoff of the allocation-stall protocol: a page
// that found no space — a host write in the vSSD layer, a GC migration or
// its program-fail retry here — polls again this much later.
const retryDelay = sim.Millisecond

// blockAddr is a block's flash.BlockID at int32 width.
type blockAddr struct{ Channel, Chip, Block int32 }

func (a blockAddr) page(p int) flash.PPA {
	return flash.PPA{Channel: int(a.Channel), Chip: int(a.Chip), Block: int(a.Block), Page: p}
}

// blockInfo is the Manager's bookkeeping for one erase block, one 64-byte
// cache line a record (TestTableWidths).
type blockInfo struct {
	// pageLPN holds the back-pointers for GC: the LPN stored in each page,
	// invalidPPA once unwritten or no longer valid. The LPN is user's: a block's
	// valid pages all hold user's data (TestMappingConsistencyProperty).
	pageLPN []int32
	id      blockAddr
	// owner is the tenant whose channel pool the block came from (the
	// "home_vssd" in gSB terms); -1 while free on a shared channel.
	owner int32
	// user is the tenant whose data the block holds (the harvester for
	// harvested blocks); -1 when unwritten.
	user int32
	// gsb is the ghost-superblock ID the block belongs to, or -1.
	gsb      int32
	writePtr int32
	valid    int32
	state    blockState
	// harvested is the Harvested Block Table bit: true for blocks serving
	// a gSB or pending lazy reclamation; cleared when GC erases the block.
	harvested bool
	// bad marks a block pending retirement after a program/erase failure:
	// GC collects it first (even fully valid) and retires it instead of
	// returning it to the pool. It stays set in the terminal blockBad state.
	bad bool
}

// Stats summarizes FTL-wide activity, including the write-amplification
// accounting used by the §3.7 claim (<5% extra WA from harvesting).
type Stats struct {
	HostPrograms int64
	GCPrograms   int64
	GCReads      int64
	Erases       int64
	GCRuns       int64
	// AllocStalls counts failed host page allocations — every page poll of
	// the stall protocol that found no space, each of which polls again
	// retryDelay later. (The vSSD layer carries a request's pages that
	// stalled back to back as one retry event, a stall run; the count is
	// per page, not per event.)
	AllocStalls int64

	// Fault-recovery accounting (all zero without a fault injector).
	// Every injected program failure is remapped exactly once and then
	// recovered by exactly one action — a host re-dispatch (counted by the
	// vSSD layer), a GC re-program, or a GC skip when a fresher host write
	// superseded the lost page — so
	//   device.ProgramFails == Remapped
	//                       == sum(vssd retries) + GCRetryPrograms + GCRetrySkips.
	Retired         int64 // blocks retired to the bad-block table
	Remapped        int64 // program-fail pages whose mapping was repaired
	GCRetryPrograms int64 // failed GC migrations re-programmed elsewhere
	GCRetrySkips    int64 // failed GC migrations superseded by host writes
}

// WriteAmplification returns (host+gc programs)/host programs, or 1 when
// nothing has been written.
func (s Stats) WriteAmplification() float64 {
	if s.HostPrograms == 0 {
		return 1
	}
	return float64(s.HostPrograms+s.GCPrograms) / float64(s.HostPrograms)
}

// Manager tracks every erase block on the device and coordinates GC across
// tenants. It is single-threaded model code driven by the sim engine.
type Manager struct {
	eng *sim.Engine
	dev *flash.Device
	cfg flash.Config

	blocks    []blockInfo
	freePools [][]int // per (channel*chips+chip): stack of free block indices
	freeCount []int   // per channel
	tenants   []*Tenant
	// fullSets[t] is a bitmap over block indices of the blocks with
	// state == blockFull && owner == t — the GC victim candidates.
	// Maintained at every transition into or out of blockFull (fullMark /
	// fullUnmark) so pickVictim scans a few hundred words instead of the
	// whole block table. Membership is keyed on (state, owner) only; the
	// per-block class/valid inputs to victim selection are read fresh at
	// scan time, so invalidations and bad/harvested flips need no index
	// maintenance.
	fullSets [][]uint64

	// Submit sends a flash op to the device: dev.Submit, unless a test
	// wraps it.
	Submit func(*flash.Op)

	// gcThreshold is lazyGCThreshold, held in a field only so in-package
	// tests can zero it to keep GC out of the way (before the first
	// allocation: it is read by a failed allocation, see epoch).
	gcThreshold float64

	// epoch versions everything a failed host allocation reads: lane
	// active/closed/backlog and each tenant's lane set, freeCount and
	// freePools, block state/valid/harvested/bad, fullSets, and the
	// tenants' gcJobs/gcTarget/badBlocks/channels. Every function that
	// writes any of it bumps epoch, so a tenant whose last host allocation
	// failed at the current epoch (Tenant.allocFailEpoch) knows the next
	// one would scan the same state to the same answer and skips the scan.
	// It starts at 1; 0 on a tenant means no failure is remembered.
	epoch uint64

	// freeGen versions freeCount, the one manager-wide input of maybeGC's
	// early return (free fraction above goal, not near the reserve, no bad
	// blocks); the others are the tenant's gcTarget, channels and
	// badBlocks, and gcThreshold, which only tests write, and only before
	// the first allocation. allocBlock and releaseBlock, the only writers of
	// freeCount, bump it, so a tenant whose maybeGC last returned early at
	// the current freeGen (Tenant.gcQuietGen) knows the next would sum the
	// same free blocks to the same answer and returns at once. It starts at
	// 1; 0 on a tenant means no early return is remembered.
	freeGen uint64

	// retry is the retryDelay lane every allocation-stall retry waits on: a
	// host stall run or a GC migration's backoff (nil without an engine,
	// where nothing can be scheduled anyway).
	retry *sim.Lane

	// onBlockErased notifies the gSB manager when GC returns a block to
	// the free pool so it can finish lazy gSB reclamation.
	onBlockErased func(blockIdx, gsbID int)

	// gcFree recycles gcJob state (including the valid-page scratch slice)
	// across collections so steady-state GC does not allocate.
	gcFree *gcJob

	// rec traces GC victim selection; nil disables.
	rec *obs.Recorder

	stats Stats
}

// SetObserver attaches a decision-event recorder for GC tracing (nil
// detaches it).
func (m *Manager) SetObserver(rec *obs.Recorder) { m.rec = rec }

// OnBlockErased installs the post-erase hook (one consumer: gsb.Manager).
func (m *Manager) OnBlockErased(fn func(blockIdx, gsbID int)) { m.onBlockErased = fn }

// NewManager builds the block bookkeeping for dev. All blocks start free.
func NewManager(eng *sim.Engine, dev *flash.Device) *Manager {
	cfg := dev.Config()
	if pages := cfg.TotalBlocks() * cfg.PagesPerBlock; pages > math.MaxInt32 {
		panic(fmt.Sprintf("ftl: device has %d pages, an L2P entry addresses at most %d", pages, math.MaxInt32))
	}
	m := &Manager{
		eng:         eng,
		dev:         dev,
		cfg:         cfg,
		blocks:      make([]blockInfo, cfg.TotalBlocks()),
		freePools:   make([][]int, cfg.Channels*cfg.ChipsPerChannel),
		freeCount:   make([]int, cfg.Channels),
		gcThreshold: lazyGCThreshold,
		epoch:       1,
		freeGen:     1,
	}
	if eng != nil {
		m.retry = eng.NewLane(retryDelay)
	}
	m.Submit = dev.Submit
	for p := range m.freePools {
		m.freePools[p] = make([]int, 0, cfg.BlocksPerChip)
	}
	for i := range m.blocks {
		b := &m.blocks[i]
		id := m.blockID(i)
		b.id = blockAddr{int32(id.Channel), int32(id.Chip), int32(id.Block)}
		b.reset(blockFree)
		p := m.poolIndex(id.Channel, id.Chip)
		m.freePools[p] = append(m.freePools[p], i)
		m.freeCount[id.Channel]++
	}
	dev.OnFault(m.deviceFault)
	return m
}

// deviceFault is the device's OnFault hook: it repairs FTL state for a
// failed op before the op's Done callback runs, so the submitter's retry
// (host re-dispatch or GC re-program) sees a consistent mapping and a
// sealed bad block.
func (m *Manager) deviceFault(kind flash.OpKind, addr flash.PPA, status flash.OpStatus) {
	switch status {
	case flash.StatusProgramFail:
		m.handleProgramFail(addr)
	case flash.StatusEraseFail:
		// Mark the victim for retirement; gcEraseDone (which runs next,
		// as the op's Done) retires it instead of pooling it.
		m.markBad(m.blockIndex(addr.BlockOf()))
	}
}

// handleProgramFail repairs the mapping after a failed page program: the
// failed slot's back-pointer is cleared and the data owner's l2p entry is
// reset if it still points at the failed page (a racing host overwrite
// may already have superseded it), then the block is marked bad so GC
// migrates its surviving pages and retires it.
func (m *Manager) handleProgramFail(addr flash.PPA) {
	idx := m.blockIndex(addr.BlockOf())
	b := &m.blocks[idx]
	page := addr.Page
	if lpn := b.pageLPN[page]; lpn != invalidPPA {
		t := m.tenants[b.user]
		b.pageLPN[page] = invalidPPA
		b.valid--
		m.epoch++
		t.mappedPages--
		if t.l2p[lpn] == m.pageIndex(idx, page) {
			t.l2p[lpn] = -1
		}
	}
	m.stats.Remapped++
	m.markBad(idx)
}

// markBad flags a block for retirement: it is sealed against further
// writes and its owner's GC is kicked so the block is collected (bad
// blocks are class-first victims) and retired. Idempotent.
func (m *Manager) markBad(idx int) {
	b := &m.blocks[idx]
	if b.bad {
		return
	}
	b.bad = true
	m.epoch++
	if b.state == blockOpen {
		// Detach the block from whichever lane is writing it.
		if b.user >= 0 {
			m.tenants[b.user].sealActive(idx)
		}
		b.state = blockFull
		m.fullMark(b.owner, idx)
	}
	if b.owner >= 0 {
		t := m.tenants[b.owner]
		t.badBlocks++
		t.gcQuietGen = 0
		t.maybeGC()
	}
}

// retireBlock moves an erased-or-unerasable bad block into the terminal
// blockBad state instead of a free pool: its capacity is permanently
// lost, mirroring a real FTL's bad-block table. The caller is responsible
// for gSB notification (gcEraseDone reads the gsb id first).
func (m *Manager) retireBlock(idx int) {
	b := &m.blocks[idx]
	if b.bad && b.owner >= 0 {
		m.tenants[b.owner].badBlocks--
	}
	m.epoch++
	b.reset(blockBad)
	m.stats.Retired++
}

// reset puts a block's record in its unwritten form, in state st. The page
// table is truncated (keeping capacity for the next open) rather than nil:
// it must be unreadable either way, and reuse keeps reopening allocation-free.
func (b *blockInfo) reset(st blockState) {
	*b = blockInfo{pageLPN: b.pageLPN[:0], id: b.id, owner: -1, user: -1, gsb: -1, state: st, bad: b.bad}
}

// fullMark records block idx as a GC victim candidate for its owner. Call
// exactly when the block enters blockFull state (owner -1 means the block
// has no collecting tenant, e.g. a sealed orphan; nothing to index).
func (m *Manager) fullMark(owner int32, idx int) {
	if owner < 0 {
		return
	}
	m.fullSets[owner][idx>>6] |= 1 << (uint(idx) & 63)
}

// fullUnmark drops block idx from its owner's candidate set. Call exactly
// when the block leaves blockFull state (→ blockGC), before owner is reset.
func (m *Manager) fullUnmark(owner int32, idx int) {
	if owner < 0 {
		return
	}
	m.fullSets[owner][idx>>6] &^= 1 << (uint(idx) & 63)
}

func (m *Manager) poolIndex(ch, chip int) int { return ch*m.cfg.ChipsPerChannel + chip }

// pageIndex is the L2P encoding of a physical page, blockIdx*PagesPerBlock +
// page (NewManager bounds it to an int32); pageAt decodes a mapped entry.
func (m *Manager) pageIndex(idx, page int) int32 { return int32(idx*m.cfg.PagesPerBlock + page) }

func (m *Manager) pageAt(enc int32) (idx, page int) {
	ppb := uint32(m.cfg.PagesPerBlock)
	return int(uint32(enc) / ppb), int(uint32(enc) % ppb)
}

func (m *Manager) blockIndex(id flash.BlockID) int {
	return (id.Channel*m.cfg.ChipsPerChannel+id.Chip)*m.cfg.BlocksPerChip + id.Block
}

func (m *Manager) blockID(idx int) flash.BlockID {
	bpc := m.cfg.BlocksPerChip
	chips := m.cfg.ChipsPerChannel
	return flash.BlockID{
		Channel: idx / (chips * bpc),
		Chip:    (idx / bpc) % chips,
		Block:   idx % bpc,
	}
}

// Stats returns a copy of the manager-wide counters.
func (m *Manager) Stats() Stats { return m.stats }

// Invariants returns the block table's conservation rows, which hold at
// every instant between events:
//   - ftl.free: blocks in the free state = Σ freeCount = Σ len(freePools)
//     (the RHS shown is whichever count disagrees, if one does);
//   - ftl.valid: Σ block valid pages = Σ tenant MappedPages;
//   - ftl.retired: blocks in the bad state = Stats.Retired.
func (m *Manager) Invariants() []obs.Invariant {
	var free, bad, valid, mapped, counted, pooled int64
	for i := range m.blocks {
		b := &m.blocks[i]
		switch b.state {
		case blockFree:
			free++
		case blockBad:
			bad++
		}
		valid += int64(b.valid)
	}
	for _, t := range m.tenants {
		mapped += t.mappedPages
	}
	for _, n := range m.freeCount {
		counted += int64(n)
	}
	for _, p := range m.freePools {
		pooled += int64(len(p))
	}
	freeRHS := counted
	if counted == free {
		freeRHS = pooled
	}
	return []obs.Invariant{
		{Name: "ftl.free", LHS: free, RHS: freeRHS, OK: free == counted && counted == pooled},
		{Name: "ftl.valid", LHS: valid, RHS: mapped, OK: valid == mapped},
		{Name: "ftl.retired", LHS: bad, RHS: m.stats.Retired, OK: bad == m.stats.Retired},
	}
}

// ScheduleRetry runs h(arg, now) retryDelay from now, on the lane all
// allocation-stall retries of this device share.
func (m *Manager) ScheduleRetry(h sim.EventHandler, arg sim.EventArg) {
	m.retry.Schedule(h, arg)
}

// LastRetry is the retry lane's sim.Lane.Last: the pointer slot of the
// newest retry when nothing has been scheduled since and a retry scheduled
// now would fire directly after it.
func (m *Manager) LastRetry() (any, bool) { return m.retry.Last() }

// FreeFraction returns the fraction of blocks free across the channel set.
func (m *Manager) FreeFraction(channels []int) float64 {
	if len(channels) == 0 {
		return 0
	}
	perChannel := m.cfg.ChipsPerChannel * m.cfg.BlocksPerChip
	free := 0
	for _, ch := range channels {
		free += m.freeCount[ch]
	}
	return float64(free) / float64(len(channels)*perChannel)
}

// allocBlock pops a free block on channel ch, preferring the given chip
// and falling back to the channel's other chips. GC migration (forGC) may
// dip into the reserve; host allocation may not.
func (m *Manager) allocBlock(ch, chip int, forGC bool) (int, bool) {
	limit := 0
	if !forGC {
		limit = gcReserve
	}
	if m.freeCount[ch] <= limit {
		return -1, false
	}
	for off := 0; off < m.cfg.ChipsPerChannel; off++ {
		c := (chip + off) % m.cfg.ChipsPerChannel
		pool := m.freePools[m.poolIndex(ch, c)]
		if len(pool) == 0 {
			continue
		}
		idx := pool[len(pool)-1]
		m.freePools[m.poolIndex(ch, c)] = pool[:len(pool)-1]
		m.freeCount[ch]--
		m.epoch++ // also covers what the caller does to the block
		m.freeGen++
		return idx, true
	}
	return -1, false
}

// releaseBlock returns an erased block to its chip pool.
func (m *Manager) releaseBlock(idx int) {
	b := &m.blocks[idx]
	m.epoch++
	b.reset(blockFree)
	p := m.poolIndex(int(b.id.Channel), int(b.id.Chip))
	m.freePools[p] = append(m.freePools[p], idx)
	m.freeCount[b.id.Channel]++
	m.freeGen++
}

// acquireGCJob returns a recycled (or new) collection job.
func (m *Manager) acquireGCJob() *gcJob {
	j := m.gcFree
	if j == nil {
		return &gcJob{}
	}
	m.gcFree = j.link
	j.link = nil
	return j
}

// releaseGCJob puts a finished job back on the free list, keeping its
// pages scratch capacity.
func (m *Manager) releaseGCJob(j *gcJob) {
	j.t = nil
	j.b = nil
	j.link = m.gcFree
	m.gcFree = j
}

// LendBlocksInto pulls up to perChip clean blocks per chip from channel
// ch's free pool for a ghost superblock owned by home, striping across
// chips so the harvester gets the channel's full parallelism, and appends
// their indices to dst (the gSB manager reuses that storage). It refuses to
// lend when doing so would drop the channel below minFreeFrac free blocks
// (the paper skips channels under 25% free): dst then comes back unchanged.
func (m *Manager) LendBlocksInto(dst []int, ch, perChip, home, gsbID int, minFreeFrac float64) []int {
	perChannel := m.cfg.ChipsPerChannel * m.cfg.BlocksPerChip
	want := perChip * m.cfg.ChipsPerChannel
	if float64(m.freeCount[ch]-want)/float64(perChannel) < minFreeFrac {
		return dst
	}
	for chip := 0; chip < m.cfg.ChipsPerChannel; chip++ {
		for n := 0; n < perChip; n++ {
			idx, ok := m.allocBlock(ch, chip, false)
			if !ok {
				break
			}
			b := &m.blocks[idx]
			b.state = blockLent
			b.owner = int32(home)
			b.user = -1
			b.harvested = true
			b.gsb = int32(gsbID)
			dst = append(dst, idx)
		}
	}
	return dst
}

// ReturnCleanBlock puts a lent, never-written block straight back into the
// free pool (gSB destruction for an unused gSB).
func (m *Manager) ReturnCleanBlock(idx int) {
	b := &m.blocks[idx]
	if b.state != blockLent || b.writePtr != 0 {
		panic(fmt.Sprintf("ftl: ReturnCleanBlock on %v state=%d writePtr=%d", b.id, b.state, b.writePtr))
	}
	m.releaseBlock(idx)
}

// Tenants returns the registered tenants (indexed by tenant ID).
func (m *Manager) Tenants() []*Tenant { return m.tenants }

// BlockBytes returns the capacity of one erase block.
func (m *Manager) BlockBytes() int64 { return m.cfg.BlockBytes() }
