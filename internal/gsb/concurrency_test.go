package gsb

import (
	"sync"
	"testing"

	"repro/internal/fault"
)

// The production pool must tolerate concurrent harvest contention: many
// goroutines racing RemoveFirst, with every gSB handed to exactly one
// harvester (the guarantee the paper gets from its Harris list and this
// pool gets from its mutex). Run under -race by check.sh.
func TestPoolConcurrentHarvestNoDoubleGrant(t *testing.T) {
	var pool gsbPool
	const n = 2000
	for i := 0; i < n; i++ {
		pool.pushFront(&GSB{id: i, NChls: 1, home: 0, harvest: -1})
	}
	var mu sync.Mutex
	granted := make(map[int]int)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				g, ok := pool.removeFirst(func(x *GSB) bool { return x.home != 99 })
				if !ok {
					return
				}
				mu.Lock()
				if prev, dup := granted[g.id]; dup {
					mu.Unlock()
					t.Errorf("gSB %d granted to both %d and %d", g.id, prev, w)
					return
				}
				granted[g.id] = w
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(granted) != n {
		t.Fatalf("granted %d of %d gSBs", len(granted), n)
	}
}

// TestReclaimDuringGCStaleID pins the reclaim/erase ordering contract the
// FTL hook depends on: when GC erases a block whose gSB has already fully
// returned to the pool (finalized), the late blockErased delivery carries a
// gsbID that no longer resolves and must be a no-op — never a double
// finalize, never a negative pending count. gsbIDs are never reused, so a
// stale ID can only miss in byID.
func TestReclaimDuringGCStaleID(t *testing.T) {
	f := newFixture(t)
	f.gm.SetHarvestable(f.home, 2)
	g := f.gm.HarvestFor(f.harv, 2)
	if g == nil {
		t.Fatal("harvest failed")
	}
	// Dirty several blocks' worth of harvested pages, then reclaim: the
	// gSB drains lazily through GC.
	for lpn := 0; lpn < 3*f.cfg.PagesPerBlock; lpn++ {
		f.harv.AllocatePage(lpn, false)
	}
	f.gm.SetHarvestable(f.home, 0)
	id := g.id
	for round := 0; round < 400 && f.gm.byID[id] != nil; round++ {
		if g.pending < 0 {
			t.Fatalf("pending went negative: %d", g.pending)
		}
		for lpn := 0; lpn < 8; lpn++ {
			f.home.AllocatePage(lpn, false)
		}
		f.eng.Run()
	}
	if f.gm.byID[id] != nil {
		t.Fatalf("gSB never drained: %s", g)
	}
	if got := f.gm.Stats().Reclaimed; got != 1 {
		t.Fatalf("reclaimed = %d, want exactly 1", got)
	}
	// Stale delivery after finalization: GC erasing another block that
	// still carries this gsbID must be ignored, not double-finalized.
	f.gm.blockErased(0, id)
	f.gm.blockErased(1, id)
	if got := f.gm.Stats().Reclaimed; got != 1 {
		t.Fatalf("stale blockErased re-finalized: reclaimed = %d", got)
	}
	if g.pending < 0 {
		t.Fatalf("stale blockErased drove pending negative: %d", g.pending)
	}
	if f.gm.HarvestableChannels(0) != 0 {
		t.Fatal("harvestable budget must stay zero after stale deliveries")
	}
}

// TestReclaimWithEraseFailures extends the ordering contract to the fault
// path: a block retired after an injected erase failure never returns to
// the free pool, but its gSB accounting must still complete — the retire
// path fires the same blockErased hook, so a reclaiming gSB drains and
// finalizes even when every one of its dirty blocks dies during GC.
func TestReclaimWithEraseFailures(t *testing.T) {
	f := newFixture(t)
	f.dev.SetFaultInjector(fault.NewInjector(fault.Config{
		EraseFailProb: 1, // every erase fails: all GC'd blocks retire
		Seed:          1,
	}))
	f.gm.SetHarvestable(f.home, 2)
	g := f.gm.HarvestFor(f.harv, 2)
	if g == nil {
		t.Fatal("harvest failed")
	}
	for lpn := 0; lpn < 3*f.cfg.PagesPerBlock; lpn++ {
		f.harv.AllocatePage(lpn, false)
	}
	f.gm.SetHarvestable(f.home, 0)
	id := g.id
	for round := 0; round < 400 && f.gm.byID[id] != nil; round++ {
		if g.pending < 0 {
			t.Fatalf("pending went negative: %d", g.pending)
		}
		for lpn := 0; lpn < 8; lpn++ {
			f.home.AllocatePage(lpn, false)
		}
		f.eng.Run()
	}
	if f.gm.byID[id] != nil {
		t.Fatalf("gSB never finalized despite erase-fail retirements: %s", g)
	}
	if got := f.gm.Stats().Reclaimed; got != 1 {
		t.Fatalf("reclaimed = %d, want exactly 1", got)
	}
	if f.ftlm.Stats().Retired == 0 {
		t.Fatal("no blocks retired under EraseFailProb=1")
	}
}
