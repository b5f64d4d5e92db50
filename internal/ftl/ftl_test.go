package ftl

import (
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/flash"
	"repro/internal/obs"
	"repro/internal/sim"
)

func smallConfig() flash.Config {
	c := flash.DefaultConfig()
	c.Channels = 2
	c.ChipsPerChannel = 2
	c.BlocksPerChip = 16
	c.PagesPerBlock = 8
	return c
}

func newTestMgr(t *testing.T, cfg flash.Config) (*sim.Engine, *Manager) {
	t.Helper()
	eng := sim.NewEngine()
	dev := flash.NewDevice(eng, cfg)
	return eng, NewManager(eng, dev)
}

// harvestLanes counts t's open harvest lanes.
func harvestLanes(t *Tenant) int {
	n := 0
	for _, ln := range t.lanes {
		if !ln.own && !ln.closed {
			n++
		}
	}
	return n
}

// writeChannels lists the distinct channels t's open lanes write (own and
// harvested), in lane order.
func writeChannels(t *Tenant) []int {
	seen := make(map[int]bool)
	var out []int
	for _, ln := range t.lanes {
		if !ln.closed && !seen[ln.ch] {
			seen[ln.ch] = true
			out = append(out, ln.ch)
		}
	}
	return out
}

func TestBlockIndexRoundTrip(t *testing.T) {
	_, m := newTestMgr(t, smallConfig())
	for i := range m.blocks {
		id := m.blockID(i)
		if m.blockIndex(id) != i {
			t.Fatalf("round trip failed for %d -> %v", i, id)
		}
	}
}

func TestAllBlocksStartFree(t *testing.T) {
	cfg := smallConfig()
	_, m := newTestMgr(t, cfg)
	perChannel := cfg.ChipsPerChannel * cfg.BlocksPerChip
	for ch := 0; ch < cfg.Channels; ch++ {
		if m.freeCount[ch] != perChannel {
			t.Fatalf("channel %d free = %d, want %d", ch, m.freeCount[ch], perChannel)
		}
	}
	if got := m.FreeFraction([]int{0, 1}); got != 1.0 {
		t.Fatalf("free fraction = %v, want 1", got)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	_, m := newTestMgr(t, smallConfig())
	tn := NewTenant(m, 0, []int{0, 1}, 256)
	ppa, ok := tn.AllocatePage(42, false)
	if !ok {
		t.Fatal("allocation failed on empty device")
	}
	got, ok := tn.Lookup(42)
	if !ok || got != ppa {
		t.Fatalf("lookup = %v/%v, want %v", got, ok, ppa)
	}
	if _, ok := tn.Lookup(41); ok {
		t.Fatal("unmapped LPN must miss")
	}
}

func TestOverwriteInvalidatesOldPage(t *testing.T) {
	_, m := newTestMgr(t, smallConfig())
	tn := NewTenant(m, 0, []int{0}, 256)
	first, _ := tn.AllocatePage(7, false)
	second, _ := tn.AllocatePage(7, false)
	if first == second {
		t.Fatal("out-of-place update must pick a new page")
	}
	got, _ := tn.Lookup(7)
	if got != second {
		t.Fatalf("lookup returns stale page: %v", got)
	}
	firstIdx := m.blockIndex(first.BlockOf())
	// The page in the first block must be invalid now.
	b := &m.blocks[firstIdx]
	if b.pageLPN[first.Page] != invalidPPA {
		t.Fatal("old page still marked valid")
	}
	if tn.MappedPages() != 1 {
		t.Fatalf("mapped pages = %d, want 1", tn.MappedPages())
	}
}

func TestWritesStripeAcrossChannels(t *testing.T) {
	cfg := smallConfig()
	_, m := newTestMgr(t, cfg)
	tn := NewTenant(m, 0, []int{0, 1}, 256)
	seen := make(map[int]bool)
	for i := 0; i < 8; i++ {
		ppa, ok := tn.AllocatePage(i, false)
		if !ok {
			t.Fatal("alloc failed")
		}
		seen[ppa.Channel] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("writes used channels %v, want both", seen)
	}
}

func TestTrim(t *testing.T) {
	_, m := newTestMgr(t, smallConfig())
	tn := NewTenant(m, 0, []int{0}, 64)
	tn.AllocatePage(3, false)
	tn.Trim(3)
	if _, ok := tn.Lookup(3); ok {
		t.Fatal("trimmed LPN must be unmapped")
	}
	if tn.MappedPages() != 0 {
		t.Fatalf("mapped = %d after trim", tn.MappedPages())
	}
	tn.Trim(3)    // double trim is a no-op
	tn.Trim(9999) // out of range is a no-op
	tn.Trim(-1)   // negative is a no-op
}

func TestCapacityExhaustionRespectsReserve(t *testing.T) {
	cfg := smallConfig()
	cfg.Channels = 1
	cfg.ChipsPerChannel = 1
	cfg.BlocksPerChip = 4
	cfg.PagesPerBlock = 4
	eng, m := newTestMgr(t, cfg)
	m.gcThreshold = 0 // keep GC out of this test
	tn := NewTenant(m, 0, []int{0}, 64)
	writable := 0
	for i := 0; i < 64; i++ {
		if _, ok := tn.AllocatePage(i, false); ok {
			writable++
		}
	}
	// 4 blocks, reserve 2 → host can fill 2 blocks = 8 pages.
	if writable != 8 {
		t.Fatalf("host wrote %d pages, want 8 (reserve respected)", writable)
	}
	// GC allocation may use the reserve.
	if _, ok := tn.AllocatePage(60, true); !ok {
		t.Fatal("GC allocation must reach the reserve")
	}
	_ = eng
}

func TestGCReclaimsInvalidBlocks(t *testing.T) {
	cfg := smallConfig()
	cfg.Channels = 1
	cfg.ChipsPerChannel = 1
	cfg.BlocksPerChip = 10
	cfg.PagesPerBlock = 4
	eng, m := newTestMgr(t, cfg)
	tn := NewTenant(m, 0, []int{0}, 64)
	// Overwrite the same 4 LPNs repeatedly: every filled block becomes fully
	// invalid, so GC (erase-only) keeps reclaiming and writes never stall.
	for round := 0; round < 40; round++ {
		for lpn := 0; lpn < 4; lpn++ {
			if _, ok := tn.AllocatePage(lpn, false); !ok {
				// Let queued GC events run, then retry once.
				eng.Run()
				if _, ok2 := tn.AllocatePage(lpn, false); !ok2 {
					t.Fatalf("write stalled at round %d with GC available", round)
				}
			}
		}
		eng.Run()
	}
	if m.Stats().Erases == 0 {
		t.Fatal("GC never erased anything")
	}
	if m.Stats().GCPrograms != 0 {
		t.Fatalf("fully-invalid victims should need no migration, got %d", m.Stats().GCPrograms)
	}
	// All data must still be readable.
	for lpn := 0; lpn < 4; lpn++ {
		if _, ok := tn.Lookup(lpn); !ok {
			t.Fatalf("LPN %d lost after GC", lpn)
		}
	}
}

func TestGCMigratesValidPages(t *testing.T) {
	cfg := smallConfig()
	cfg.Channels = 1
	cfg.ChipsPerChannel = 1
	cfg.BlocksPerChip = 8
	cfg.PagesPerBlock = 4
	eng, m := newTestMgr(t, cfg)
	tn := NewTenant(m, 0, []int{0}, 64)
	write := func(lpn int) {
		if _, ok := tn.AllocatePage(lpn, false); !ok {
			eng.Run()
			if _, ok := tn.AllocatePage(lpn, false); !ok {
				t.Fatalf("stall writing %d", lpn)
			}
		}
	}
	// Live working set that never gets overwritten...
	live := 8
	for lpn := 0; lpn < live; lpn++ {
		write(lpn)
	}
	// ...then interleave fresh live pages with churn on LPN 0, so every
	// victim block holds a mix of valid (fresh) and invalid (stale 0) pages
	// and GC must migrate.
	for round := 0; round < 12; round++ {
		write(live + round)
		write(0)
		eng.Run()
	}
	eng.Run()
	if m.Stats().GCPrograms == 0 {
		t.Fatal("expected GC to migrate valid pages")
	}
	for lpn := 0; lpn < live+12; lpn++ {
		if _, ok := tn.Lookup(lpn); !ok {
			t.Fatalf("LPN %d lost after migration", lpn)
		}
	}
	if st := m.Stats(); st.GCReads < st.GCPrograms {
		t.Fatalf("every migrated page needs a read: reads=%d programs=%d", st.GCReads, st.GCPrograms)
	}
}

// checkMapping asserts the tables agree with each other: each mapped LPN
// resolves to a distinct written page whose back-pointer names it, in a
// block whose user is that tenant; each block's valid count equals the LPNs
// mapping into it and its valid back-pointers; and the blocks' valid counts
// sum to the tenants' mapped pages. The user check is what lets a page's
// data tenant be read from its block: a block's valid pages all belong to
// b.user, from open to erase.
func checkMapping(t *testing.T, m *Manager, seed int64, step int) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: "+format, append([]any{seed, step}, args...)...)
	}
	mapsIn := make([]int, len(m.blocks))
	seen := make([]bool, len(m.blocks)*m.cfg.PagesPerBlock)
	var mapped int64
	for _, tn := range m.tenants {
		n := int64(0)
		for lpn := 0; lpn < tn.logicalPages; lpn++ {
			ppa, ok := tn.Lookup(lpn)
			if !ok {
				continue
			}
			n++
			idx := m.blockIndex(ppa.BlockOf())
			b := &m.blocks[idx]
			if page := m.pageIndex(idx, ppa.Page); seen[page] {
				fail("tenant %d LPN %d aliases %v", tn.id, lpn, ppa)
			} else {
				seen[page] = true
			}
			if int(b.user) != tn.id {
				fail("tenant %d LPN %d maps into block %d of user %d (state %d)", tn.id, lpn, idx, b.user, b.state)
			}
			if ppa.Page >= int(b.writePtr) || b.pageLPN[ppa.Page] != int32(lpn) {
				fail("tenant %d LPN %d maps to %v, whose back-pointer does not name it", tn.id, lpn, ppa)
			}
			mapsIn[idx]++
		}
		if n != tn.MappedPages() {
			fail("tenant %d maps %d LPNs, MappedPages = %d", tn.id, n, tn.MappedPages())
		}
		mapped += n
	}
	var valid int64
	for i := range m.blocks {
		b := &m.blocks[i]
		back := 0
		for _, lpn := range b.pageLPN {
			if lpn != invalidPPA {
				back++
			}
		}
		if int(b.valid) != mapsIn[i] || int(b.valid) != back {
			fail("block %d valid = %d, %d LPNs map in, %d valid back-pointers", i, b.valid, mapsIn[i], back)
		}
		valid += int64(b.valid)
	}
	if valid != mapped {
		fail("blocks hold %d valid pages, tenants map %d", valid, mapped)
	}
}

// Property: the L2P tables, the per-page back-pointers and the per-block
// valid counts stay consistent (checkMapping, after every step), and so do
// the Manager's invariant rows (free counts against pools against block
// states, valid pages against mapped pages, Retired against bad blocks),
// through a
// random walk of three tenants over everything that moves a page: host
// writes submitted to the device and re-dispatched on a program failure
// (the vSSD layer's protocol), trims, GC with migration, gSBs lent on one
// tenant's channel and harvested by another, their lanes closed with dirty
// blocks left for the owner's GC to migrate back into the harvester's
// space, channel re-partitioning, and the Heavy fault profile's program and
// erase failures.
func TestMappingConsistencyProperty(t *testing.T) {
	cfg := smallConfig()
	cfg.Channels = 3
	const logical = 176 // of 256 pages a channel
	var total Stats
	foreignMigrations, gsbErases := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		eng, m := newTestMgr(t, cfg)
		faults := fault.Heavy()
		faults.Seed = seed
		m.dev.SetFaultInjector(fault.NewInjector(faults))
		m.Submit = func(op *flash.Op) {
			// A GC program for another tenant's data: the block's owner
			// collecting what a harvester wrote.
			if j, ok := op.Ctx.(*gcJob); ok && op.Kind == flash.OpProgram && op.Tenant != j.t.id {
				foreignMigrations++
			}
			m.dev.Submit(op)
		}
		m.OnBlockErased(func(_, gsbID int) {
			if gsbID >= 0 {
				gsbErases++
			}
		})
		tenants := []*Tenant{
			NewTenant(m, 0, []int{0}, logical),
			NewTenant(m, 1, []int{1}, logical),
			NewTenant(m, 2, []int{2}, logical),
		}
		rng := sim.NewRNG(seed)
		var write func(tn *Tenant, lpn int)
		programDone := func(ctx any, lpn int64, _ sim.Time, status flash.OpStatus) {
			if status == flash.StatusProgramFail {
				write(ctx.(*Tenant), int(lpn))
			}
		}
		write = func(tn *Tenant, lpn int) {
			ppa, ok := tn.AllocatePage(lpn, false)
			if !ok {
				return
			}
			tn.RecordHostProgram()
			op := m.dev.AcquireOp()
			op.Kind = flash.OpProgram
			op.Addr = ppa
			op.Tenant = tn.id
			op.Priority = PriorityMed
			op.Done = programDone
			op.Ctx = tn
			op.CtxI = int64(lpn)
			m.Submit(op)
		}
		var harvested []struct{ gsb, by int }
		nextGSB := 1
		for step := 0; step < 2500; step++ {
			tn := tenants[rng.Intn(len(tenants))]
			switch rng.Intn(20) {
			case 0, 1:
				tn.Trim(rng.Intn(logical))
			case 2, 3, 4:
				eng.RunUntil(eng.Now() + sim.Time(rng.Intn(2000))*sim.Microsecond)
			case 5:
				// tn lends a chip-stripe of its channel; another tenant
				// harvests it.
				if lent := m.LendBlocksInto(nil, tn.channels[0], 1, tn.id, nextGSB, 0.1); len(lent) > 0 {
					by := tenants[(tn.id+1+rng.Intn(len(tenants)-1))%len(tenants)]
					by.AddHarvestLanes(nextGSB, lent)
					harvested = append(harvested, struct{ gsb, by int }{nextGSB, by.id})
				}
				nextGSB++
			case 6:
				if len(harvested) > 0 {
					tenants[harvested[0].by].CloseHarvestLanes(harvested[0].gsb)
					harvested = harvested[1:]
				}
			case 7:
				// Tenant 2 takes a share of channel 0, or gives it back.
				if len(tenants[2].channels) == 1 {
					tenants[2].SetChannels([]int{0, 2})
				} else {
					tenants[2].SetChannels([]int{2})
				}
			default:
				write(tn, rng.Intn(logical))
			}
			if failing := obs.Failing(m.Invariants()); failing != "" {
				t.Fatalf("seed %d step %d: rows fail: %s", seed, step, failing)
			}
			checkMapping(t, m, seed, step)
		}
		st := m.Stats()
		total.GCPrograms += st.GCPrograms
		total.Remapped += st.Remapped
		total.Retired += st.Retired
		total.GCRetryPrograms += st.GCRetryPrograms
	}
	t.Logf("GC programs %d (%d for another tenant's data), gSB blocks erased %d, remapped %d (%d GC re-programs), retired %d",
		total.GCPrograms, foreignMigrations, gsbErases, total.Remapped, total.GCRetryPrograms, total.Retired)
	if total.GCPrograms == 0 || foreignMigrations == 0 || gsbErases == 0 || total.Remapped == 0 || total.Retired == 0 {
		t.Fatal("the walk no longer reaches GC migration, gSB reclaim and program-fail remap; it proves nothing about them")
	}
}

func TestLendBlocks(t *testing.T) {
	cfg := smallConfig()
	_, m := newTestMgr(t, cfg)
	NewTenant(m, 0, []int{0}, 64)
	lent := m.LendBlocksInto(nil, 0, 2, 0, 7, 0.25)
	if len(lent) != 2*cfg.ChipsPerChannel {
		t.Fatalf("lent %d blocks, want %d", len(lent), 2*cfg.ChipsPerChannel)
	}
	for _, idx := range lent {
		if m.blocks[idx].state != blockLent {
			t.Fatalf("block %d not lent", idx)
		}
		if !m.blocks[idx].harvested {
			t.Fatal("lent block must have HBT bit set")
		}
	}
	// Free count dropped accordingly.
	perChannel := cfg.ChipsPerChannel * cfg.BlocksPerChip
	if m.freeCount[0] != perChannel-len(lent) {
		t.Fatalf("free = %d", m.freeCount[0])
	}
}

func TestLendBlocksRespectsFloor(t *testing.T) {
	cfg := smallConfig()
	cfg.Channels = 1
	cfg.ChipsPerChannel = 1
	cfg.BlocksPerChip = 8
	_, m := newTestMgr(t, cfg)
	tn := NewTenant(m, 0, []int{0}, 64)
	// Consume blocks until only 3/8 free (37%).
	for lpn := 0; ; lpn++ {
		if m.freeCount[0] <= 3 {
			break
		}
		tn.AllocatePage(lpn%64, false)
	}
	// Lending 2 would leave 1/8 = 12.5% < 25%: must refuse.
	if lent := m.LendBlocksInto(nil, 0, 2, 0, 1, 0.25); lent != nil {
		t.Fatalf("lend should refuse below floor, got %d blocks", len(lent))
	}
	// Lending 1 leaves 2/8 = 25%: allowed.
	if lent := m.LendBlocksInto(nil, 0, 1, 0, 1, 0.25); len(lent) != 1 {
		t.Fatalf("lend of 1 should succeed, got %v", lent)
	}
}

func TestHarvestLanesWriteOnForeignChannel(t *testing.T) {
	cfg := smallConfig()
	_, m := newTestMgr(t, cfg)
	home := NewTenant(m, 0, []int{0}, 64)
	harv := NewTenant(m, 1, []int{1}, 64)
	_ = home
	lent := m.LendBlocksInto(nil, 0, 1, 0, 3, 0.0)
	if len(lent) == 0 {
		t.Fatal("no blocks lent")
	}
	harv.AddHarvestLanes(3, lent)
	if harvestLanes(harv) != cfg.ChipsPerChannel {
		t.Fatalf("harvest lanes = %d", harvestLanes(harv))
	}
	chans := writeChannels(harv)
	if len(chans) != 2 {
		t.Fatalf("write channels = %v, want own+harvested", chans)
	}
	// Writes should hit channel 0 (home's channel) some of the time.
	hit := false
	for lpn := 0; lpn < 16; lpn++ {
		ppa, ok := harv.AllocatePage(lpn, false)
		if !ok {
			t.Fatal("alloc failed")
		}
		if ppa.Channel == 0 {
			hit = true
		}
	}
	if !hit {
		t.Fatal("harvester never wrote to the harvested channel")
	}
}

func TestCloseHarvestLanesReturnsCleanBlocks(t *testing.T) {
	cfg := smallConfig()
	_, m := newTestMgr(t, cfg)
	NewTenant(m, 0, []int{0}, 64)
	// The harvester owns no channels, so its only lanes are harvest lanes
	// and the single write below is guaranteed to dirty a lent block.
	harv := NewTenant(m, 1, nil, 64)
	before := m.freeCount[0]
	lent := m.LendBlocksInto(nil, 0, 1, 0, 5, 0.0)
	harv.AddHarvestLanes(5, lent)
	// Write one page so exactly one block is dirty.
	if _, ok := harv.AllocatePage(0, false); !ok {
		t.Fatal("harvest write failed")
	}
	returned := harv.CloseHarvestLanes(5)
	if len(returned) != len(lent)-1 {
		t.Fatalf("returned %d clean blocks, want %d", len(returned), len(lent)-1)
	}
	if m.freeCount[0] != before-1 {
		t.Fatalf("free on home channel = %d, want %d", m.freeCount[0], before-1)
	}
	if harvestLanes(harv) != 0 {
		t.Fatal("harvest lanes must be gone")
	}
	// The dirty block is sealed for GC.
	dirty := -1
	for _, idx := range lent {
		if m.blocks[idx].state == blockFull {
			dirty = idx
		}
	}
	if dirty < 0 {
		t.Fatal("dirty block not sealed as Full")
	}
	if !m.blocks[dirty].harvested {
		t.Fatal("dirty block must keep HBT bit until erased")
	}
}

func TestHarvestedFirstVictimSelection(t *testing.T) {
	cfg := smallConfig()
	cfg.Channels = 1
	cfg.ChipsPerChannel = 1
	cfg.BlocksPerChip = 8
	cfg.PagesPerBlock = 4
	_, m := newTestMgr(t, cfg)
	tn := NewTenant(m, 0, []int{0}, 64)
	harv := NewTenant(m, 1, []int{}, 64)
	// Make a regular full block with zero valid pages (cheapest victim).
	for lpn := 0; lpn < 4; lpn++ {
		tn.AllocatePage(lpn, false)
	}
	for lpn := 0; lpn < 4; lpn++ {
		tn.AllocatePage(lpn, false) // invalidates first block
	}
	// Make a harvested full block with some valid pages (more expensive).
	lent := m.LendBlocksInto(nil, 0, 1, 0, 2, 0.0)
	harv.AddHarvestLanes(2, lent)
	for lpn := 0; lpn < 4; lpn++ {
		harv.AllocatePage(lpn, false)
	}
	victim := tn.pickVictim()
	if victim < 0 {
		t.Fatal("no victim found")
	}
	if !m.blocks[victim].harvested {
		t.Fatal("the harvested block must win despite its higher valid count")
	}
}

func TestGCErasedHookFires(t *testing.T) {
	cfg := smallConfig()
	cfg.Channels = 1
	cfg.ChipsPerChannel = 1
	cfg.BlocksPerChip = 6
	cfg.PagesPerBlock = 4
	eng, m := newTestMgr(t, cfg)
	var hookBlocks []int
	var hookGSBs []int
	m.OnBlockErased(func(idx, gsbID int) {
		hookBlocks = append(hookBlocks, idx)
		hookGSBs = append(hookGSBs, gsbID)
	})
	tn := NewTenant(m, 0, []int{0}, 64)
	for round := 0; round < 30; round++ {
		for lpn := 0; lpn < 4; lpn++ {
			if _, ok := tn.AllocatePage(lpn, false); !ok {
				eng.Run()
				tn.AllocatePage(lpn, false)
			}
		}
		eng.Run()
	}
	if len(hookBlocks) == 0 {
		t.Fatal("erase hook never fired")
	}
	for _, g := range hookGSBs {
		if g != -1 {
			t.Fatalf("regular block erased with gsb id %d", g)
		}
	}
}

func TestPrefill(t *testing.T) {
	cfg := smallConfig()
	_, m := newTestMgr(t, cfg)
	tn := NewTenant(m, 0, []int{0, 1}, 256)
	rng := sim.NewRNG(1)
	if err := tn.Prefill(0.5, 0.25, rng); err != nil {
		t.Fatal(err)
	}
	if tn.MappedPages() != 128 {
		t.Fatalf("mapped = %d, want 128", tn.MappedPages())
	}
	if tn.freeFraction() >= 1.0 {
		t.Fatal("prefill consumed no blocks")
	}
	if err := tn.Prefill(2, 0, rng); err == nil {
		t.Fatal("out-of-range fraction must error")
	}
	if err := tn.Prefill(math.NaN(), 0, rng); err == nil {
		t.Fatal("a NaN fill fraction must error")
	}
	if err := tn.Prefill(0.5, math.NaN(), rng); err == nil {
		t.Fatal("a NaN overwrite fraction must error")
	}
}

func TestSetChannelsSealsDroppedLanes(t *testing.T) {
	cfg := smallConfig()
	_, m := newTestMgr(t, cfg)
	m.gcThreshold = 0
	tn := NewTenant(m, 0, []int{0, 1}, 256)
	for lpn := 0; lpn < 4; lpn++ {
		tn.AllocatePage(lpn, false)
	}
	tn.SetChannels([]int{1})
	// No open blocks may remain on channel 0.
	for i := range m.blocks {
		b := &m.blocks[i]
		if b.id.Channel == 0 && b.state == blockOpen {
			t.Fatal("dropped lane left an open block")
		}
	}
	// New writes go only to channel 1.
	for lpn := 10; lpn < 20; lpn++ {
		ppa, ok := tn.AllocatePage(lpn, false)
		if !ok {
			t.Fatal("alloc failed")
		}
		if ppa.Channel != 0 && ppa.Channel != 1 {
			t.Fatal("bogus channel")
		}
		if ppa.Channel == 0 {
			t.Fatal("write landed on dropped channel")
		}
	}
	// Old data is still readable.
	if _, ok := tn.Lookup(0); !ok {
		t.Fatal("data lost after channel change")
	}
	// Growing back works too.
	tn.SetChannels([]int{0, 1})
	seen0 := false
	for lpn := 30; lpn < 40; lpn++ {
		ppa, _ := tn.AllocatePage(lpn, false)
		if ppa.Channel == 0 {
			seen0 = true
		}
	}
	if !seen0 {
		t.Fatal("re-added channel unused")
	}
}

func TestWriteAmplificationIdentity(t *testing.T) {
	var s Stats
	if s.WriteAmplification() != 1 {
		t.Fatal("WA of nothing must be 1")
	}
	s.HostPrograms = 100
	s.GCPrograms = 25
	if got := s.WriteAmplification(); got != 1.25 {
		t.Fatalf("WA = %v, want 1.25", got)
	}
}

// pickVictimScan is the reference victim selection: the pre-index linear
// scan over the whole block table. pickVictim must match it exactly,
// including the lowest-index tie-break.
func pickVictimScan(tn *Tenant) int {
	best := -1
	bestKey := [2]int{1 << 30, 1 << 30}
	for i := range tn.mgr.blocks {
		b := &tn.mgr.blocks[i]
		if b.state != blockFull || int(b.owner) != tn.id {
			continue
		}
		if int(b.valid) >= tn.mgr.cfg.PagesPerBlock && !b.harvested && !b.bad {
			continue
		}
		class := 1
		if b.harvested {
			class = 0
		}
		if b.bad {
			class = -1
		}
		key := [2]int{class, int(b.valid)}
		if key[0] < bestKey[0] || (key[0] == bestKey[0] && key[1] < bestKey[1]) {
			bestKey = key
			best = i
		}
	}
	return best
}

// checkFullSets asserts the candidate bitmaps hold exactly the blocks with
// state == blockFull && owner == t, for every tenant.
func checkFullSets(t *testing.T, m *Manager) {
	t.Helper()
	for tid := range m.tenants {
		set := m.fullSets[tid]
		for i := range m.blocks {
			b := &m.blocks[i]
			want := b.state == blockFull && int(b.owner) == tid
			got := set[i>>6]&(1<<(uint(i)&63)) != 0
			if got != want {
				t.Fatalf("fullSets[%d] bit %d = %v, want %v (state=%d owner=%d)",
					tid, i, got, want, b.state, b.owner)
			}
		}
	}
}

// Property: through a churny mixed workload — overwrites, trims, GC,
// lending/harvesting, channel re-partitioning, and injected bad blocks —
// the Full-block candidate index stays exact and pickVictim returns the
// same block the reference whole-table scan would.
func TestPickVictimMatchesScan(t *testing.T) {
	cfg := smallConfig()
	cfg.PagesPerBlock = 4
	eng, m := newTestMgr(t, cfg)
	tn := NewTenant(m, 0, []int{0}, 128)
	harv := NewTenant(m, 1, []int{1}, 128)
	rng := sim.NewRNG(42)
	check := func() {
		checkFullSets(t, m)
		for _, tenant := range m.tenants {
			if got, want := tenant.pickVictim(), pickVictimScan(tenant); got != want {
				t.Fatalf("tenant %d pickVictim = %d, want %d", tenant.id, got, want)
			}
		}
	}
	// Lend one chip-stripe of tenant 0's channel to the harvester.
	lent := m.LendBlocksInto(nil, 0, 1, 0, 1, 0.0)
	harv.AddHarvestLanes(1, lent)
	bad := 0
	for step := 0; step < 400; step++ {
		switch rng.Intn(10) {
		case 0:
			tn.Trim(rng.Intn(128))
		case 1:
			harv.AllocatePage(rng.Intn(128), false)
		case 2:
			// Flag a random open/full block bad (exercises markBad's
			// Open→Full seal and the class -1 victims). Capped so retired
			// capacity can't starve GC migration into a retry livelock.
			i := rng.Intn(len(m.blocks))
			if st := m.blocks[i].state; bad < 4 && (st == blockOpen || st == blockFull) {
				m.markBad(i)
				bad++
			}
		case 3:
			eng.Run()
		default:
			tn.AllocatePage(rng.Intn(128), false)
		}
		check()
	}
	// Drain GC, close the harvest lanes (seals dirty lent blocks), and
	// re-partition the harvester's channels (seals dropped-lane blocks).
	eng.Run()
	harv.CloseHarvestLanes(1)
	check()
	harv.SetChannels([]int{})
	check()
}

// memoChurn drives two tenants of `logical` pages each on a small device
// (32 4-page blocks a channel, 2 of them the GC reserve), at seeds 1 to
// 32, through a random sequence of everything that writes the state the
// FTL's memos read — host writes, trims, GC progress driven through the
// engine in partial slices (so retries on the lane fire mid-collection),
// lending, harvesting, closing and returning gSB blocks, channel
// re-partitioning, GC targets, and program/erase failures (injected by the
// device on GC traffic, delivered by hand for host pages, which this
// package never submits) — and calls check after every step. It also
// checks that each tenant's AllocStalls counts its failed host
// allocations, and the manager's their sum.
func memoChurn(t *testing.T, logical int, check func(seed int64, step int, m *Manager, tenants []*Tenant, rng *sim.RNG)) {
	t.Helper()
	cfg := smallConfig()
	cfg.PagesPerBlock = 4
	for seed := int64(1); seed <= 32; seed++ {
		eng, m := newTestMgr(t, cfg)
		m.dev.SetFaultInjector(fault.NewInjector(fault.Config{ProgramFailProb: 0.01, EraseFailProb: 0.01, Seed: seed}))
		tenants := []*Tenant{NewTenant(m, 0, []int{0}, logical), NewTenant(m, 1, []int{1}, logical)}
		rng := sim.NewRNG(seed)
		var stalls [2]int64

		// A host write of four pages: when the first fails, the rest stall
		// in one step while the memo holds, as vssd's writePages does.
		write := func(tn *Tenant, lpn int) {
			if _, ok := tn.AllocatePage(lpn, false); !ok {
				stalls[tn.id]++
				if tn.RepeatAllocFailures(3) {
					stalls[tn.id] += 3
				}
			}
		}
		if err := tenants[0].Prefill(0.9, 0.2, rng); err != nil {
			t.Fatal(err)
		}
		if err := tenants[1].Prefill(0.9, 0.2, rng); err != nil {
			t.Fatal(err)
		}
		stalls[0], stalls[1] = tenants[0].stats.AllocStalls, tenants[1].stats.AllocStalls

		var idle [][]int // lent, not harvested: gSB block lists
		var harvested []struct{ gsb, by int }
		nextGSB := 1
		hostFails := 0
		for step := 0; step < 3000; step++ {
			tn := tenants[rng.Intn(2)]
			switch rng.Intn(24) {
			case 0, 1:
				tn.Trim(rng.Intn(logical))
			case 2, 3, 4, 5:
				eng.RunUntil(eng.Now() + sim.Time(rng.Intn(2000))*sim.Microsecond)
			case 6:
				// The home tenant lends a chip-stripe of one of its channels.
				ch := tn.channels[rng.Intn(len(tn.channels))]
				if lent := m.LendBlocksInto(nil, ch, 1, tn.id, nextGSB, 0); len(lent) > 0 {
					idle = append(idle, lent)
				}
				nextGSB++
			case 7:
				// The other tenant harvests the oldest idle gSB.
				if len(idle) > 0 {
					b := &m.blocks[idle[0][0]]
					harvester := tenants[1-b.owner]
					harvester.AddHarvestLanes(int(b.gsb), idle[0])
					harvested = append(harvested, struct{ gsb, by int }{int(b.gsb), harvester.id})
					idle = idle[1:]
				}
			case 8:
				if len(harvested) > 0 {
					tenants[harvested[0].by].CloseHarvestLanes(harvested[0].gsb)
					harvested = harvested[1:]
				}
			case 9:
				if len(idle) > 0 {
					for _, idx := range idle[0] {
						m.ReturnCleanBlock(idx)
					}
					idle = idle[1:]
				}
			case 10:
				// Tenant 1 takes a share of channel 0, or gives it back.
				if len(tenants[1].channels) == 1 {
					tenants[1].SetChannels([]int{0, 1})
				} else {
					tenants[1].SetChannels([]int{1})
				}
			case 11:
				tn.SetGCTarget(float64(rng.Intn(3)) * 0.15)
			case 12:
				// A host program fails: the device tells the FTL (OnFault)
				// and the submitter re-dispatches the page. Capped so
				// retired capacity cannot swallow the device.
				lpn := rng.Intn(logical)
				if ppa, ok := tn.Lookup(lpn); ok && hostFails < 6 {
					hostFails++
					m.deviceFault(flash.OpProgram, ppa, flash.StatusProgramFail)
					write(tn, lpn)
				}
			default:
				write(tn, rng.Intn(logical))
			}
			check(seed, step, m, tenants, rng)
			for _, tn := range tenants {
				if tn.stats.AllocStalls != stalls[tn.id] {
					t.Fatalf("seed %d step %d: tenant %d AllocStalls = %d, want %d failed host allocations",
						seed, step, tn.id, tn.stats.AllocStalls, stalls[tn.id])
				}
			}
		}
		if got := m.stats.AllocStalls; got != stalls[0]+stalls[1] {
			t.Fatalf("seed %d: manager AllocStalls = %d, tenants sum to %d", seed, got, stalls[0]+stalls[1])
		}
	}
}

// Property: the failed-allocation memo never answers differently from the
// scan it skips. After every step of memoChurn, for each tenant whose memo
// would answer the next host allocation, the unmemoised scan must fail too
// and leave epoch alone (so probing changes nothing): a scan that succeeds
// or starts a collection there means some writer forgot to bump epoch.
func TestAllocFailMemoMatchesScan(t *testing.T) {
	memoHits := 0
	// 112 logical pages of 128 keep the device full enough that
	// allocation stalls are common.
	memoChurn(t, 112, func(seed int64, step int, m *Manager, tenants []*Tenant, rng *sim.RNG) {
		for _, tn := range tenants {
			if tn.allocFailEpoch != m.epoch {
				continue
			}
			memoHits++
			before := m.epoch
			if ppa, ok := tn.allocateScan(rng.Intn(tn.logicalPages), false); ok {
				t.Fatalf("seed %d step %d: tenant %d memo says no space at epoch %d, scan allocated %v", seed, step, tn.id, before, ppa)
			}
			if m.epoch != before {
				t.Fatalf("seed %d step %d: tenant %d memoised failure moved epoch %d -> %d when rescanned", seed, step, tn.id, before, m.epoch)
			}
		}
	})
	if memoHits < 10000 {
		t.Fatalf("memo held at only %d probes; the sequence no longer stalls enough to test it", memoHits)
	}
}

// gcQuietNow evaluates maybeGC's early return from scratch: the tenant's
// free fraction is above its goal, it is not near the host reserve, and it
// has no bad blocks to collect.
func gcQuietNow(tn *Tenant) bool {
	m := tn.mgr
	free := 0
	for _, ch := range tn.channels {
		free += m.freeCount[ch]
	}
	return len(tn.channels) > 0 && free > (gcReserve+1)*len(tn.channels) &&
		m.FreeFraction(tn.channels) > max(m.gcThreshold, tn.gcTarget) && tn.badBlocks == 0
}

// Property: the GC-trigger memo never answers differently from the early
// return it skips. After every step of memoChurn, freeCount must be as it
// was while freeGen is, and each tenant whose maybeGC would return at once
// (gcQuietGen == freeGen) must find the early return's predicate true when
// evaluated afresh: a quiet record where GC should start means some writer
// of freeCount forgot to bump freeGen, or some writer of the tenant's
// gcTarget, channels or badBlocks forgot to clear the record.
func TestGCQuietMatchesRecompute(t *testing.T) {
	quietHits := 0
	var last *Manager
	var gen uint64
	var free []int
	// 64 logical pages of 128 leave room above the GC goal, so quiet
	// records are taken before lending and writes use the room up.
	memoChurn(t, 64, func(seed int64, step int, m *Manager, tenants []*Tenant, _ *sim.RNG) {
		if m == last && m.freeGen == gen && !slices.Equal(m.freeCount, free) {
			t.Fatalf("seed %d step %d: freeCount moved %v -> %v with freeGen at %d", seed, step, free, m.freeCount, gen)
		}
		last, gen, free = m, m.freeGen, append(free[:0], m.freeCount...)
		for _, tn := range tenants {
			if tn.gcQuietGen != m.freeGen {
				continue
			}
			quietHits++
			if !gcQuietNow(tn) {
				t.Fatalf("seed %d step %d: tenant %d GC memo quiet at freeGen %d, but free %v of channels %v (goal %.2f, %d bad blocks) should start GC",
					seed, step, tn.id, gen, m.freeCount, tn.channels, max(m.gcThreshold, tn.gcTarget), tn.badBlocks)
			}
		}
	})
	if quietHits < 1000 {
		t.Fatalf("GC memo quiet at only %d probes; the sequence no longer tests it", quietHits)
	}
}

func TestTenantIDOrderEnforced(t *testing.T) {
	_, m := newTestMgr(t, smallConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order tenant id must panic")
		}
	}()
	NewTenant(m, 5, []int{0}, 64)
}

// The table widths a device's memory rests on: one block record is one
// 64-byte cache line, one L2P entry four bytes.
func TestTableWidths(t *testing.T) {
	if got := unsafe.Sizeof(blockInfo{}); got > 64 {
		t.Fatalf("blockInfo is %d bytes, want <= 64", got)
	}
	if got := unsafe.Sizeof(Tenant{}.l2p[0]); got != 4 {
		t.Fatalf("an l2p entry is %d bytes, want 4", got)
	}
}

// mustPanic runs fn and fails unless it panics with a message naming limit.
func mustPanic(t *testing.T, limit string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if msg, _ := recover().(string); !strings.Contains(msg, limit) {
			t.Fatalf("want a panic naming %s, got %q", limit, msg)
		}
	}()
	fn()
}

func TestNewManagerRejectsDeviceBeyondL2PWidth(t *testing.T) {
	cfg := smallConfig() // 64 blocks
	cfg.PagesPerBlock = 1 << 26
	dev := flash.NewDevice(sim.NewEngine(), cfg)
	mustPanic(t, "2147483647", func() { NewManager(nil, dev) })
}

func TestNewTenantRejectsLogicalSizeBeyondBackPointerWidth(t *testing.T) {
	_, m := newTestMgr(t, smallConfig())
	mustPanic(t, "2147483647", func() { NewTenant(m, 0, []int{0}, 1<<31) })
}
