// Package gsb implements FleetIO's ghost superblock (gSB) abstraction
// (§3.6): harvestable bundles of flash blocks striped across one or more
// channels, tracked in pools indexed by channel count. The manager turns
// Make_Harvestable actions into gSB creation/reclamation and Harvest
// actions into gSB handoffs, with lazy reclamation of in-use gSBs
// finishing through the FTL's GC erase hook.
package gsb

import (
	"fmt"

	"repro/internal/ftl"
	"repro/internal/obs"
)

// GSB mirrors the paper's Figure 7 metadata: the channel footprint,
// capacity, harvesting state, and the home/harvest tenants.
type GSB struct {
	ID       int
	NChls    int   // number of channels the superblock stripes across
	Capacity int64 // bytes
	InUse    bool  // currently harvested
	Home     int   // vSSD that gave up the resources
	Harvest  int   // vSSD harvesting it, -1 when none

	Channels   []int
	Blocks     []int // ftl block indices
	Reclaiming bool
	pending    int // blocks not yet back in the home pool
}

const (
	// blocksPerChip is how many blocks each chip contributes per channel of
	// a new gSB. The paper's minimum superblock is 16 blocks (64 MB) on one
	// channel; with 4 chips per channel that is 4 blocks per chip.
	blocksPerChip = 4
	// minFreeFrac refuses gSB creation on channels below this free-block
	// fraction (the paper uses 25%).
	minFreeFrac = 0.25
)

// Stats counts manager activity.
type Stats struct {
	Created        int64
	Harvested      int64
	Reclaimed      int64 // gSBs fully returned to their home pools
	CreateFailures int64 // Make_Harvestable that found no lendable channel
	HarvestMisses  int64 // Harvest that found no compatible gSB
}

// Manager owns the gSB pool. Pool operations are mutex-guarded (see
// gsbPool for why the paper's lock-free design was retired here); the
// surrounding bookkeeping runs on the single simulation goroutine.
type Manager struct {
	ftlm *ftl.Manager

	// pool[n] holds idle gSBs striping across exactly n channels.
	pool []gsbPool

	byID        map[int]*GSB
	byHome      map[int][]*GSB // live gSBs per home tenant
	byHarvester map[int][]*GSB // in-use gSBs per harvesting tenant
	nextID      int

	// channelBW is the per-channel bandwidth (bytes/s) used to convert a
	// requested gsb_bw into a channel count, rounding down (§3.6).
	channelBW float64

	// rec traces gSB lifecycle events; nil disables.
	rec *obs.Recorder

	stats Stats

	// freeG recycles finalized gSB metadata (and the grown Blocks/Channels
	// arrays inside) — safe because finalize removes the gSB from every
	// index and no caller retains *GSB across manager calls. reclaimS and
	// harvestedS are iteration snapshots for loops that mutate the indexes
	// they walk; they never nest (reclaim reaches neither SetHarvestable
	// nor HarvestedBy).
	freeG      []*GSB
	reclaimS   []*GSB
	harvestedS []*GSB
}

// SetObserver attaches a decision-event recorder for gSB lifecycle
// tracing (nil detaches it).
func (m *Manager) SetObserver(rec *obs.Recorder) { m.rec = rec }

// NewManager wires a gSB manager to the FTL manager and installs the GC
// erase hook that completes lazy reclamation.
func NewManager(ftlm *ftl.Manager, channels int, channelBW float64) *Manager {
	m := &Manager{
		ftlm:        ftlm,
		pool:        make([]gsbPool, channels+1),
		byID:        make(map[int]*GSB),
		byHome:      make(map[int][]*GSB),
		byHarvester: make(map[int][]*GSB),
		channelBW:   channelBW,
	}
	ftlm.OnBlockErased(m.blockErased)
	return m
}

// Stats returns a copy of the counters.
func (m *Manager) Stats() Stats { return m.stats }

// Invariants returns the gSB lifecycle row, which holds at every instant
// between events: gsb.live, the live gSBs = Created − Reclaimed.
func (m *Manager) Invariants() []obs.Invariant {
	live, want := int64(len(m.byID)), m.stats.Created-m.stats.Reclaimed
	return []obs.Invariant{{Name: "gsb.live", LHS: live, RHS: want, OK: live == want}}
}

// HarvestableChannels returns the total channel-count of home's live,
// not-reclaiming gSBs — its current harvestable budget.
func (m *Manager) HarvestableChannels(home int) int {
	total := 0
	for _, g := range m.byHome[home] {
		if !g.Reclaiming {
			total += g.NChls
		}
	}
	return total
}

// ChannelsFor converts a bandwidth request (bytes/s) into a channel count,
// rounding down per §3.6.
func (m *Manager) ChannelsFor(bw float64) int {
	if m.channelBW <= 0 {
		return 0
	}
	return int(bw / m.channelBW)
}

// SetHarvestable executes a Make_Harvestable(gsb_bw) action for home: the
// target harvestable budget becomes targetChls channels. gSBs wider than
// the target are reclaimed (§3.6 "Reclaiming gSBs"); if the surviving
// budget is short, a new gSB makes up the difference from channels that
// still have headroom. It returns the created gSB, if any.
func (m *Manager) SetHarvestable(home *ftl.Tenant, targetChls int) *GSB {
	if targetChls < 0 {
		targetChls = 0
	}
	// Phase 1: reclaim oversized gSBs.
	m.reclaimS = append(m.reclaimS[:0], m.byHome[home.ID()]...)
	for _, g := range m.reclaimS {
		if !g.Reclaiming && g.NChls > targetChls {
			m.reclaim(g)
		}
	}
	// Phase 2: top up.
	deficit := targetChls - m.HarvestableChannels(home.ID())
	if deficit <= 0 {
		return nil
	}
	return m.create(home, deficit)
}

// grab pops a recycled gSB (keeping its grown Blocks/Channels arrays) or
// allocates a fresh one.
func (m *Manager) grab() *GSB {
	if n := len(m.freeG); n > 0 {
		g := m.freeG[n-1]
		m.freeG[n-1] = nil
		m.freeG = m.freeG[:n-1]
		return g
	}
	return &GSB{}
}

// create builds a gSB of up to nchls channels from home's owned channels
// that pass the free floor. Returns nil when no channel qualifies.
func (m *Manager) create(home *ftl.Tenant, nchls int) *GSB {
	id := m.nextID
	g := m.grab()
	blocks := g.Blocks[:0]
	chans := g.Channels[:0]
	for _, ch := range home.Channels() {
		if len(chans) == nchls {
			break
		}
		before := len(blocks)
		blocks = m.ftlm.LendBlocksInto(blocks, ch, blocksPerChip, home.ID(), id, minFreeFrac)
		if len(blocks) == before {
			continue
		}
		chans = append(chans, ch)
	}
	if len(chans) == 0 {
		g.Blocks, g.Channels = blocks, chans // keep any grown capacity
		m.freeG = append(m.freeG, g)
		m.stats.CreateFailures++
		return nil
	}
	m.nextID++
	*g = GSB{
		ID:       id,
		NChls:    len(chans),
		Capacity: int64(len(blocks)) * m.ftlm.BlockBytes(),
		Home:     home.ID(),
		Harvest:  -1,
		Channels: chans,
		Blocks:   blocks,
		pending:  len(blocks),
	}
	m.byID[id] = g
	m.byHome[home.ID()] = append(m.byHome[home.ID()], g)
	m.pool[g.NChls].pushFront(g)
	m.stats.Created++
	m.rec.GSB(obs.KindGSBCreate, g.ID, g.Home, -1, g.NChls)
	// While lending, keep the home tenant's GC aiming above the §3.6 free
	// floor so future gSB creation stays possible (supply would otherwise
	// starve once harvested data accumulates on the home channels).
	home.SetGCTarget(minFreeFrac + 0.10)
	return g
}

// HarvestFor executes a Harvest(gsb_bw) action for the harvester: it takes
// the best-fitting idle gSB (exact channel count, then progressively
// smaller, then larger — §3.6) that the harvester does not itself own, and
// attaches its blocks as write lanes. Returns nil when nothing suitable is
// idle.
func (m *Manager) HarvestFor(harvester *ftl.Tenant, nchls int) *GSB {
	if nchls < 1 {
		nchls = 1
	}
	if nchls >= len(m.pool) {
		nchls = len(m.pool) - 1
	}
	notMine := func(g *GSB) bool { return g.Home != harvester.ID() && !g.Reclaiming }
	try := func(n int) *GSB {
		g, ok := m.pool[n].removeFirst(notMine)
		if !ok {
			return nil
		}
		return g
	}
	var g *GSB
	if g = try(nchls); g == nil {
		for n := nchls - 1; n >= 1 && g == nil; n-- {
			g = try(n)
		}
		for n := nchls + 1; n < len(m.pool) && g == nil; n++ {
			g = try(n)
		}
	}
	if g == nil {
		m.stats.HarvestMisses++
		return nil
	}
	g.InUse = true
	g.Harvest = harvester.ID()
	harvester.AddHarvestLanes(g.ID, g.Blocks)
	m.byHarvester[harvester.ID()] = append(m.byHarvester[harvester.ID()], g)
	m.stats.Harvested++
	m.rec.GSB(obs.KindGSBHarvest, g.ID, g.Harvest, g.Home, g.NChls)
	return g
}

// HarvestedChannels returns the total channel-count currently harvested by
// the given tenant.
func (m *Manager) HarvestedChannels(harvester int) int {
	total := 0
	for _, g := range m.byHarvester[harvester] {
		if !g.Reclaiming {
			total += g.NChls
		}
	}
	return total
}

// HarvestedBy returns the in-use gSBs of a harvester (live, including
// reclaiming ones). The slice is a reused snapshot, valid until the next
// HarvestedBy call; Release may be called on its entries while iterating.
func (m *Manager) HarvestedBy(harvester int) []*GSB {
	m.harvestedS = append(m.harvestedS[:0], m.byHarvester[harvester]...)
	return m.harvestedS
}

// Release gives an in-use gSB back: the harvester's lanes close and the
// blocks drain to the home pool (lazily for dirty ones). It is the
// harvester-initiated counterpart of a home-side reclaim.
func (m *Manager) Release(g *GSB) {
	if g == nil || g.Reclaiming {
		return
	}
	m.reclaim(g)
}

// reclaim starts reclamation of g. Idle gSBs return all their blocks
// immediately; in-use gSBs stop accepting new writes and drain lazily as
// GC erases their dirty blocks (§3.6, §3.7).
func (m *Manager) reclaim(g *GSB) {
	g.Reclaiming = true
	m.rec.GSB(obs.KindGSBReclaim, g.ID, g.Home, g.Harvest, g.NChls)
	if !g.InUse {
		// Remove from the pool so nobody harvests it mid-reclaim.
		m.pool[g.NChls].removeFirst(func(x *GSB) bool { return x == g })
		for _, idx := range g.Blocks {
			m.ftlm.ReturnCleanBlock(idx)
		}
		g.pending = 0
		m.finalize(g)
		return
	}
	harvester := m.ftlm.Tenants()[g.Harvest]
	clean := harvester.CloseHarvestLanes(g.ID)
	g.pending -= len(clean)
	if g.pending <= 0 {
		m.finalize(g)
	}
	// Dirty blocks finish through blockErased as GC collects them.
}

// blockErased is the FTL hook: a block belonging to gsbID returned to the
// free pool.
func (m *Manager) blockErased(_ int, gsbID int) {
	if gsbID < 0 {
		return
	}
	g := m.byID[gsbID]
	if g == nil {
		return
	}
	g.pending--
	// A gSB whose blocks have all returned to the home pool is gone
	// whether or not a reclaim was requested: GC naturally drains in-use
	// gSBs over time (harvested-first victims, §3.7), and finalizing here
	// frees the budget so agents can make fresh resources harvestable.
	if g.pending <= 0 {
		if !g.Reclaiming && !g.InUse {
			// Still idling in the pool: remove it so nobody harvests a husk.
			m.pool[g.NChls].removeFirst(func(x *GSB) bool { return x == g })
		}
		m.finalize(g)
	}
}

// finalize removes a fully returned gSB from all indexes.
func (m *Manager) finalize(g *GSB) {
	delete(m.byID, g.ID)
	list := m.byHome[g.Home]
	for i, x := range list {
		if x == g {
			m.byHome[g.Home] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if g.Harvest >= 0 {
		hl := m.byHarvester[g.Harvest]
		for i, x := range hl {
			if x == g {
				m.byHarvester[g.Harvest] = append(hl[:i], hl[i+1:]...)
				break
			}
		}
	}
	if len(m.byHome[g.Home]) == 0 {
		m.ftlm.Tenants()[g.Home].SetGCTarget(0)
	}
	m.stats.Reclaimed++
	m.rec.GSB(obs.KindGSBFinalize, g.ID, g.Home, g.Harvest, g.NChls)
	m.freeG = append(m.freeG, g)
}

// String renders the gSB for diagnostics.
func (g *GSB) String() string {
	return fmt.Sprintf("gSB{id=%d nchls=%d home=%d harvest=%d inUse=%v reclaiming=%v blocks=%d}",
		g.ID, g.NChls, g.Home, g.Harvest, g.InUse, g.Reclaiming, len(g.Blocks))
}
