package gsb

import (
	"testing"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/sim"
)

type fixture struct {
	eng  *sim.Engine
	cfg  flash.Config
	dev  *flash.Device
	ftlm *ftl.Manager
	gm   *Manager
	home *ftl.Tenant
	harv *ftl.Tenant
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	cfg := flash.DefaultConfig()
	cfg.Channels = 4
	cfg.ChipsPerChannel = 2
	cfg.BlocksPerChip = 32
	cfg.PagesPerBlock = 8
	eng := sim.NewEngine()
	dev := flash.NewDevice(eng, cfg)
	ftlm := ftl.NewManager(eng, dev)
	gm := NewManager(ftlm, cfg.Channels, cfg.ChannelBandwidth())
	home := ftl.NewTenant(ftlm, 0, []int{0, 1}, 512)
	harv := ftl.NewTenant(ftlm, 1, []int{2, 3}, 512)
	return &fixture{eng: eng, cfg: cfg, dev: dev, ftlm: ftlm, gm: gm, home: home, harv: harv}
}

// Len returns the number of pooled gSBs.
func (p *gsbPool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.items)
}

func TestChannelsFor(t *testing.T) {
	f := newFixture(t)
	bw := f.cfg.ChannelBandwidth()
	if got := f.gm.ChannelsFor(0); got != 0 {
		t.Fatalf("ChannelsFor(0) = %d", got)
	}
	if got := f.gm.ChannelsFor(bw * 1.5); got != 1 {
		t.Fatalf("ChannelsFor(1.5ch) = %d, want 1 (round down)", got)
	}
	if got := f.gm.ChannelsFor(bw * 3); got != 3 {
		t.Fatalf("ChannelsFor(3ch) = %d", got)
	}
}

func TestMakeHarvestableCreatesGSB(t *testing.T) {
	f := newFixture(t)
	g := f.gm.SetHarvestable(f.home, 2)
	if g == nil {
		t.Fatal("no gSB created")
	}
	if g.NChls != 2 || len(g.channels) != 2 {
		t.Fatalf("gSB channels = %v", g.channels)
	}
	wantBlocks := 2 * blocksPerChip * f.cfg.ChipsPerChannel
	if len(g.blocks) != wantBlocks {
		t.Fatalf("gSB blocks = %d, want %d", len(g.blocks), wantBlocks)
	}
	if g.inUse || g.harvest != -1 || g.home != 0 {
		t.Fatalf("fresh gSB state wrong: %s", g)
	}
	if f.gm.pool[2].Len() != 1 {
		t.Fatalf("pool[2] = %d", f.gm.pool[2].Len())
	}
	if f.gm.HarvestableChannels(0) != 2 {
		t.Fatalf("harvestable = %d", f.gm.HarvestableChannels(0))
	}
}

func TestSetHarvestableIdempotent(t *testing.T) {
	f := newFixture(t)
	f.gm.SetHarvestable(f.home, 2)
	if g := f.gm.SetHarvestable(f.home, 2); g != nil {
		t.Fatal("target already met; nothing should be created")
	}
	if f.gm.Stats().Created != 1 {
		t.Fatalf("created = %d", f.gm.Stats().Created)
	}
}

func TestSetHarvestableShrinkReclaims(t *testing.T) {
	f := newFixture(t)
	f.gm.SetHarvestable(f.home, 2)
	free0 := f.ftlm.FreeFraction(f.home.Channels())
	f.gm.SetHarvestable(f.home, 0)
	if f.gm.HarvestableChannels(0) != 0 {
		t.Fatalf("harvestable = %d after shrink", f.gm.HarvestableChannels(0))
	}
	if after := f.ftlm.FreeFraction(f.home.Channels()); after <= free0 {
		t.Fatalf("blocks not returned: free fraction %v -> %v", free0, after)
	}
	if f.gm.pool[2].Len() != 0 {
		t.Fatal("reclaimed gSB still in pool")
	}
	if f.gm.Stats().Reclaimed != 1 {
		t.Fatalf("reclaimed = %d", f.gm.Stats().Reclaimed)
	}
}

func TestHarvestExactFit(t *testing.T) {
	f := newFixture(t)
	f.gm.SetHarvestable(f.home, 2)
	g := f.gm.HarvestFor(f.harv, 2)
	if g == nil {
		t.Fatal("harvest failed")
	}
	if !g.inUse || g.harvest != 1 {
		t.Fatalf("harvested state wrong: %s", g)
	}
	if f.gm.pool[2].Len() != 0 {
		t.Fatal("harvested gSB still idle in pool")
	}
	// Harvester can now write on home's channels.
	seen := map[int]bool{}
	for lpn := 0; lpn < 64; lpn++ {
		ppa, ok := f.harv.AllocatePage(lpn, false)
		if !ok {
			t.Fatal("alloc failed")
		}
		seen[ppa.Channel] = true
	}
	if !seen[0] && !seen[1] {
		t.Fatal("harvester never used harvested channels")
	}
}

func TestHarvestFallbackSmallerThenLarger(t *testing.T) {
	f := newFixture(t)
	f.gm.SetHarvestable(f.home, 1) // only a 1-channel gSB exists
	g := f.gm.HarvestFor(f.harv, 2)
	if g == nil || g.NChls != 1 {
		t.Fatalf("want fallback to smaller gSB, got %v", g)
	}
	// Now only a 2-channel gSB exists; a 1-channel request takes it.
	f2 := newFixture(t)
	f2.gm.SetHarvestable(f2.home, 2)
	g2 := f2.gm.HarvestFor(f2.harv, 1)
	if g2 == nil || g2.NChls != 2 {
		t.Fatalf("want fallback to larger gSB, got %v", g2)
	}
}

func TestCannotHarvestOwnGSB(t *testing.T) {
	f := newFixture(t)
	f.gm.SetHarvestable(f.home, 2)
	if g := f.gm.HarvestFor(f.home, 2); g != nil {
		t.Fatalf("home harvested its own gSB: %s", g)
	}
	if f.gm.Stats().HarvestMisses != 1 {
		t.Fatalf("misses = %d", f.gm.Stats().HarvestMisses)
	}
	// The gSB must still be in the pool for others.
	if f.gm.pool[2].Len() != 1 {
		t.Fatal("gSB lost after refused harvest")
	}
}

func TestHarvestEmptyPool(t *testing.T) {
	f := newFixture(t)
	if g := f.gm.HarvestFor(f.harv, 1); g != nil {
		t.Fatalf("harvested from empty pool: %s", g)
	}
}

func TestLazyReclaimInUseGSB(t *testing.T) {
	f := newFixture(t)
	f.gm.SetHarvestable(f.home, 2)
	g := f.gm.HarvestFor(f.harv, 2)
	// Dirty one block's worth of pages.
	for lpn := 0; lpn < f.cfg.PagesPerBlock; lpn++ {
		f.harv.AllocatePage(lpn, false)
	}
	f.gm.SetHarvestable(f.home, 0) // triggers reclaim of the in-use gSB
	if !g.Reclaiming {
		t.Fatal("gSB not marked reclaiming")
	}
	if f.gm.byID[g.id] == nil {
		// All written pages may have stayed in one lane; if some blocks were
		// dirty the gSB must still be pending.
		t.Log("gSB fully reclaimed immediately (all blocks clean)")
		return
	}
	// The harvester's lanes on home's channels closed with the reclaim.
	for lpn := 0; lpn < 64; lpn++ {
		if ppa, ok := f.harv.AllocatePage(lpn, false); ok && ppa.Channel < 2 {
			t.Fatalf("harvester still writes channel %d after the reclaim", ppa.Channel)
		}
	}
	// Force GC on home to erase the dirty blocks: churn home's space.
	for round := 0; round < 200 && f.gm.byID[g.id] != nil; round++ {
		for lpn := 0; lpn < 8; lpn++ {
			f.home.AllocatePage(lpn, false)
		}
		f.eng.Run()
	}
	if f.gm.byID[g.id] != nil {
		t.Fatalf("gSB never finished lazy reclamation: %s", g)
	}
	if f.gm.HarvestableChannels(0) != 0 {
		t.Fatal("harvestable budget must be zero")
	}
}

func TestCreateRespectsFreeFloor(t *testing.T) {
	f := newFixture(t)
	// Consume home's channels until both are safely below the 25% floor
	// (the floor is per channel, so an average near 25% is not enough).
	for lpn := 0; ; lpn++ {
		if f.ftlm.FreeFraction(f.home.Channels()) < 0.20 {
			break
		}
		if _, ok := f.home.AllocatePage(lpn%512, false); !ok {
			break
		}
	}
	g := f.gm.SetHarvestable(f.home, 2)
	if g != nil {
		t.Fatalf("created %s with channels near the floor", g)
	}
	if f.gm.Stats().CreateFailures == 0 {
		t.Fatal("expected a create failure")
	}
}

func TestBlockErasedHookIgnoresForeignBlocks(t *testing.T) {
	f := newFixture(t)
	// Hook with gsbID -1 (regular block) and an unknown id must be no-ops.
	f.gm.blockErased(0, -1)
	f.gm.blockErased(0, 999)
}

// TestSetHarvestableSteadyStateAllocs pins the create/reclaim cycle at
// zero steady-state allocations: gSB metadata comes from the free list and
// block/channel storage is recycled (the cycle runs every decision window
// for the lifetime of a deployment).
func TestSetHarvestableSteadyStateAllocs(t *testing.T) {
	f := newFixture(t)
	cycle := func() {
		f.gm.SetHarvestable(f.home, 1)
		f.gm.SetHarvestable(f.home, 0)
	}
	cycle() // size the free list and scratch
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("steady-state SetHarvestable cycle allocates %v per run", avg)
	}
}
