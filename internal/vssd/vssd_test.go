package vssd

import (
	"testing"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/sim"
)

func testPlatform(channels int) (*sim.Engine, *Platform) {
	eng := sim.NewEngine()
	pc := DefaultPlatformConfig()
	pc.Flash.Channels = channels
	pc.Flash.ChipsPerChannel = 2
	pc.Flash.BlocksPerChip = 64
	pc.Flash.PagesPerBlock = 16
	return eng, NewPlatform(eng, pc)
}

func chanRange(lo, hi int) []int {
	var out []int
	for c := lo; c < hi; c++ {
		out = append(out, c)
	}
	return out
}

func TestAddVSSDDerivesCapacity(t *testing.T) {
	_, p := testPlatform(4)
	v := p.AddVSSD(Config{Name: "a", Channels: chanRange(0, 2)})
	// 2 channels * 2 chips * 64 blocks * 16 pages * 0.8 OP
	raw := 2 * 2 * 64 * 16
	want := int(float64(raw) * 0.8)
	if v.Tenant().LogicalPages() != want {
		t.Fatalf("logical pages = %d, want %d", v.Tenant().LogicalPages(), want)
	}
	if v.Priority() != ftl.PriorityMed {
		t.Fatalf("default priority = %d", v.Priority())
	}
}

func TestWriteReadRequestRoundTrip(t *testing.T) {
	eng, p := testPlatform(2)
	v := p.AddVSSD(Config{Name: "a", Channels: chanRange(0, 2)})
	var wrDone, rdDone sim.Time
	v.Submit(&Request{Write: true, LPN: 0, Pages: 4,
		OnComplete: func(_ *Request, at sim.Time) { wrDone = at }})
	eng.Run()
	if wrDone == 0 {
		t.Fatal("write never completed")
	}
	v.Submit(&Request{Write: false, LPN: 0, Pages: 4,
		OnComplete: func(_ *Request, at sim.Time) { rdDone = at }})
	eng.Run()
	if rdDone <= wrDone {
		t.Fatal("read must complete after submission")
	}
	if v.Completed() != 2 {
		t.Fatalf("completed = %d", v.Completed())
	}
}

func TestUnmappedReadIsFast(t *testing.T) {
	eng, p := testPlatform(2)
	v := p.AddVSSD(Config{Name: "a", Channels: chanRange(0, 2)})
	start := eng.Now()
	var done sim.Time
	v.Submit(&Request{Write: false, LPN: 100, Pages: 1,
		OnComplete: func(_ *Request, at sim.Time) { done = at }})
	eng.Run()
	if done-start > 50*sim.Microsecond {
		t.Fatalf("unmapped read took %d ns; should be a fast zero-fill", done-start)
	}
}

func TestWindowRotation(t *testing.T) {
	eng, p := testPlatform(2)
	v := p.AddVSSD(Config{Name: "a", Channels: chanRange(0, 2)})
	v.Submit(&Request{Write: true, LPN: 0, Pages: 2})
	eng.Run()
	snap := v.Rotate()
	if snap.Window.Writes != 1 {
		t.Fatalf("window writes = %d", snap.Window.Writes)
	}
	if snap.Window.Bytes() != int64(2*p.FlashConfig().PageSize) {
		t.Fatalf("window bytes = %d", snap.Window.Bytes())
	}
	if snap.OwnedChannels != 2 {
		t.Fatalf("owned channels = %d", snap.OwnedChannels)
	}
	// The next window starts empty.
	snap2 := v.Rotate()
	if snap2.Window.Requests() != 0 {
		t.Fatal("rotation did not reset the window")
	}
}

func TestSLOViolationTracking(t *testing.T) {
	eng, p := testPlatform(2)
	v := p.AddVSSD(Config{Name: "a", Channels: chanRange(0, 2), SLO: 1}) // 1ns: everything violates
	v.Submit(&Request{Write: true, LPN: 0, Pages: 1})
	eng.Run()
	snap := v.Rotate()
	if snap.Window.SLOViolations != 1 {
		t.Fatalf("violations = %d", snap.Window.SLOViolations)
	}
	v.slo = sim.Second // generous: nothing violates
	v.Submit(&Request{Write: true, LPN: 1, Pages: 1})
	eng.Run()
	snap = v.Rotate()
	if snap.Window.SLOViolations != 0 {
		t.Fatalf("violations = %d with generous SLO", snap.Window.SLOViolations)
	}
}

func TestTokenBucketThrottles(t *testing.T) {
	eng, p := testPlatform(2)
	pageSize := p.FlashConfig().PageSize
	// Rate = 100 pages/s; each request is 1 page.
	rate := float64(100 * pageSize)
	v := p.AddVSSD(Config{Name: "a", Channels: chanRange(0, 2)})
	v.SetRateLimit(rate, float64(pageSize))
	const n = 20
	var last sim.Time
	for i := 0; i < n; i++ {
		v.Submit(&Request{Write: true, LPN: i, Pages: 1,
			OnComplete: func(_ *Request, at sim.Time) { last = at }})
	}
	eng.Run()
	// 20 single-page requests at 100 pages/s must take ~190ms+.
	if last < 150*sim.Millisecond {
		t.Fatalf("rate limiter too permissive: finished at %dms", last/sim.Millisecond)
	}
}

func TestNoRateLimitIsFast(t *testing.T) {
	eng, p := testPlatform(2)
	v := p.AddVSSD(Config{Name: "a", Channels: chanRange(0, 2)})
	var last sim.Time
	for i := 0; i < 20; i++ {
		v.Submit(&Request{Write: true, LPN: i, Pages: 1,
			OnComplete: func(_ *Request, at sim.Time) { last = at }})
	}
	eng.Run()
	if last > 50*sim.Millisecond {
		t.Fatalf("unthrottled writes took %dms", last/sim.Millisecond)
	}
}

func TestPriorityActionChangesServiceOrder(t *testing.T) {
	eng, p := testPlatform(1)
	a := p.AddVSSD(Config{Name: "a", Channels: []int{0}, LogicalPages: 1024})
	b := p.AddVSSD(Config{Name: "b", Channels: []int{0}, LogicalPages: 1024})
	p.Apply(Action{VSSD: 1, Kind: ActSetPriority, Level: ftl.PriorityHigh})
	if b.Priority() != ftl.PriorityHigh {
		t.Fatal("priority not applied")
	}
	// Saturate with a's traffic, then submit b's read: with high priority it
	// should finish earlier than a same-submitted low-priority one would.
	var aLast, bDone sim.Time
	for i := 0; i < 64; i++ {
		a.Submit(&Request{Write: true, LPN: i, Pages: 1,
			OnComplete: func(_ *Request, at sim.Time) { aLast = at }})
	}
	b.Submit(&Request{Write: true, LPN: 0, Pages: 1,
		OnComplete: func(_ *Request, at sim.Time) { bDone = at }})
	eng.Run()
	if bDone >= aLast {
		t.Fatalf("high-priority request finished last: b=%d a=%d", bDone, aLast)
	}
}

func TestHarvestActionGrowsWriteFootprint(t *testing.T) {
	eng, p := testPlatform(4)
	ls := p.AddVSSD(Config{Name: "ls", Channels: chanRange(0, 2)})
	bi := p.AddVSSD(Config{Name: "bi", Channels: chanRange(2, 4)})
	chanBW := p.FlashConfig().ChannelBandwidth()
	// LS makes 1 channel harvestable; BI harvests it.
	p.Apply(Action{VSSD: ls.ID(), Kind: ActMakeHarvestable, BW: chanBW})
	if p.GSB().HarvestableChannels(ls.ID()) != 1 {
		t.Fatalf("harvestable = %d", p.GSB().HarvestableChannels(ls.ID()))
	}
	p.Apply(Action{VSSD: bi.ID(), Kind: ActHarvest, BW: chanBW})
	if got := p.GSB().HarvestedChannels(bi.ID()); got != 1 {
		t.Fatalf("harvested channels = %d", got)
	}
	// BI's writes now reach 3 channels.
	reached := map[int]bool{}
	for lpn := 0; lpn < 64; lpn++ {
		if ppa, ok := bi.Tenant().AllocatePage(lpn, false); ok {
			reached[int(ppa.Channel)] = true
		}
	}
	if len(reached) != 3 {
		t.Fatalf("writes reached channels %v, want 3", reached)
	}
	// Releasing: target 0 harvested.
	p.Apply(Action{VSSD: bi.ID(), Kind: ActHarvest, BW: 0})
	if got := p.GSB().HarvestedChannels(bi.ID()); got != 0 {
		t.Fatalf("harvested channels after release = %d", got)
	}
	eng.Run()
}

func TestSetChannelsAction(t *testing.T) {
	_, p := testPlatform(4)
	v := p.AddVSSD(Config{Name: "a", Channels: chanRange(0, 2), LogicalPages: 512})
	p.Apply(Action{VSSD: 0, Kind: ActSetChannels, Channels: chanRange(0, 4)})
	if got := len(v.Tenant().Channels()); got != 4 {
		t.Fatalf("channels = %d", got)
	}
}

func TestClosedLoopThroughputScalesWithChannels(t *testing.T) {
	// The core premise of harvesting: more channels, more bandwidth.
	run := func(nch int) float64 {
		eng, p := testPlatform(4)
		v := p.AddVSSD(Config{Name: "bi", Channels: chanRange(0, nch), LogicalPages: 4096,
			MaxInflightPages: 64})
		var issue func()
		lpn := 0
		issue = func() {
			v.Submit(&Request{Write: true, LPN: lpn % 4000, Pages: 8,
				OnComplete: func(_ *Request, _ sim.Time) { issue() }})
			lpn += 8
		}
		for i := 0; i < 8; i++ {
			issue()
		}
		const dur = 2 * sim.Second
		eng.RunUntil(dur)
		snap := v.Rotate()
		return snap.Window.Bandwidth(dur)
	}
	bw1, bw4 := run(1), run(4)
	if bw4 < 2.5*bw1 {
		t.Fatalf("4-channel bandwidth %.1f MB/s not ≫ 1-channel %.1f MB/s", bw4/1e6, bw1/1e6)
	}
}

func TestGCRunsUnderChurnWithoutDataLoss(t *testing.T) {
	// A prefilled, churning vSSD must drive GC (erases, migrations) while
	// every write keeps completing and reading back.
	eng, p := testPlatform(2)
	v := p.AddVSSD(Config{Name: "a", Channels: chanRange(0, 2)})
	if err := v.Tenant().Prefill(0.85, 0.5, sim.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	lpn := 0
	var issue func()
	issue = func() {
		v.Submit(&Request{Write: true, LPN: lpn % 1024, Pages: 4,
			OnComplete: func(_ *Request, _ sim.Time) { issue() }})
		lpn += 4
	}
	for i := 0; i < 4; i++ {
		issue()
	}
	eng.RunUntil(3 * sim.Second)
	st := p.FTL().Stats()
	if st.Erases == 0 {
		t.Fatal("no GC ran under sustained churn on a prefilled device")
	}
	if st.WriteAmplification() <= 1.0 {
		t.Fatalf("WA = %v, expected migrations", st.WriteAmplification())
	}
	if v.Completed() == 0 {
		t.Fatal("writes stalled")
	}
	// Everything written recently is still mapped.
	for l := 0; l < 64; l++ {
		if _, ok := v.Tenant().Lookup(l); !ok {
			t.Fatalf("LPN %d lost", l)
		}
	}
}

func TestDoubleSubmitPanics(t *testing.T) {
	eng, p := testPlatform(2)
	v := p.AddVSSD(Config{Name: "a", Channels: chanRange(0, 2)})
	r := &Request{Write: true, LPN: 0, Pages: 1}
	v.Submit(r)
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("double submit must panic")
		}
	}()
	v.Submit(r)
}

func TestRequestBytes(t *testing.T) {
	r := &Request{Pages: 3}
	if r.bytes(4096) != 12288 {
		t.Fatalf("bytes = %d", r.bytes(4096))
	}
}

func TestIsolationString(t *testing.T) {
	if HardwareIsolated.String() != "hardware" || SoftwareIsolated.String() != "software" {
		t.Fatal("isolation strings wrong")
	}
}

func TestActionKindString(t *testing.T) {
	kinds := []ActionKind{ActHarvest, ActMakeHarvestable, ActSetPriority, ActSetChannels}
	want := []string{"Harvest", "Make_Harvestable", "Set_Priority", "Set_Channels"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Fatalf("kind %d = %q", i, k.String())
		}
	}
}

var _ = flash.OpRead // silence potential unused import if assertions change

// TestStalledWriteRetriesOnItsOwnLattice pins the allocation-stall
// protocol every overloaded figure's latencies are made of: a host page
// that finds no space polls again every retryDelay counted from the
// instant *it* stalled — not on a shared tick, and not woken by the event
// that frees space — and is dispatched by the first poll after GC has
// returned enough blocks to the pool.
//
// One channel, one chip, six four-page blocks, and one writer that keeps a
// single page outstanding, so at most one page is ever stalled and every
// episode can be followed event by event. On the single chip the
// background erase only gets to run once the writer has stalled; its
// length is set off the 1 ms grid so a block is never freed on a lattice
// point.
func TestStalledWriteRetriesOnItsOwnLattice(t *testing.T) {
	eng := sim.NewEngine()
	pc := DefaultPlatformConfig()
	pc.Flash.Channels = 1
	pc.Flash.ChipsPerChannel = 1
	pc.Flash.BlocksPerChip = 6
	pc.Flash.PagesPerBlock = 4
	pc.Flash.EraseBlock = 3300 * sim.Microsecond
	p := NewPlatform(eng, pc)
	v := p.AddVSSD(Config{Name: "full", Channels: []int{0}, LogicalPages: 8})

	const total = 200
	writes := 0
	var issue func()
	issue = func() {
		if writes == total {
			return
		}
		v.Submit(&Request{Write: true, LPN: writes % 8, Pages: 1,
			OnComplete: func(_ *Request, _ sim.Time) { issue() }})
		writes++
	}
	issue()

	const none = sim.Time(-1)
	episodes, longest := 0, int64(0)
	stalledAt, freedAt := none, none // freedAt: last block freed with no failed poll since
	polls := int64(0)                // failed polls of the open episode
	for {
		before, free := p.FTL().Stats(), p.FTL().FreeFraction(chanRange(0, 1))
		if !eng.Step() {
			break
		}
		now, after := eng.Now(), p.FTL().Stats()
		if p.FTL().FreeFraction(chanRange(0, 1)) > free {
			freedAt = now
		}
		failed := after.AllocStalls - before.AllocStalls
		dispatched := after.HostPrograms > before.HostPrograms
		if failed > 1 {
			t.Fatalf("t=%d: %d pages stalled in one event; the writer keeps one outstanding", now, failed)
		}
		if stalledAt == none {
			if failed == 1 {
				stalledAt, freedAt, polls = now, none, 1
			}
			continue
		}
		// Inside an episode the page is heard from only on its lattice.
		if failed == 1 || dispatched {
			if want := stalledAt + sim.Time(polls)*retryDelay; now != want {
				t.Fatalf("episode %d: poll %d at t=%d, want t=%d (stalled at %d)", episodes, polls, now, want, stalledAt)
			}
		}
		if failed == 1 {
			freedAt = none
			polls++
		}
		if dispatched {
			// The stalled page went out at the first lattice point after
			// the free that made room.
			if freedAt == none || now <= freedAt || now-freedAt > retryDelay {
				t.Fatalf("episode %d: dispatched at t=%d, last block freed at t=%d; want the first poll after it", episodes, now, freedAt)
			}
			episodes++
			if polls > longest {
				longest = polls
			}
			stalledAt = none
		}
	}
	if writes != total || v.Completed() != total {
		t.Fatalf("issued %d writes, completed %d, want %d each", writes, v.Completed(), total)
	}
	// 16 host-writable pages under a writer faster than the erase behind
	// it: a stall every few writes, each waiting out most of an erase.
	if episodes < 20 || longest < 3 {
		t.Fatalf("%d stall episodes, longest %d polls: the device no longer fills", episodes, longest)
	}
}

// oneChipTenant builds one channel and one chip of eight 16-page blocks
// and a tenant of 96 logical pages on it. With one chip the tenant has one
// host lane, so its pages take consecutive slots of the open block in
// dispatch order. The erase ends off the millisecond grid.
func oneChipTenant() (*sim.Engine, *Platform, *VSSD) {
	eng := sim.NewEngine()
	pc := DefaultPlatformConfig()
	pc.Flash.Channels = 1
	pc.Flash.ChipsPerChannel = 1
	pc.Flash.BlocksPerChip = 8
	pc.Flash.PagesPerBlock = 16
	pc.Flash.EraseBlock = 3300 * sim.Microsecond
	p := NewPlatform(eng, pc)
	return eng, p, p.AddVSSD(Config{Name: "a", Channels: []int{0}, LogicalPages: 96})
}

// retryDelay is ftl's allocation-stall backoff: a stalled page is polled
// on a lattice of this step.
const retryDelay = sim.Millisecond

// fullTenant is oneChipTenant with all 96 logical pages written: six blocks
// of valid data and the two the GC reserve keeps back, so a host write
// finds no space and GC finds no victim until something is trimmed. The
// clock is moved off the millisecond grid.
func fullTenant(t *testing.T) (*sim.Engine, *Platform, *VSSD) {
	t.Helper()
	eng, p, v := oneChipTenant()
	if err := v.Tenant().Prefill(1, 0, sim.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(123 * sim.Microsecond)
	if free := p.FTL().FreeFraction(chanRange(0, 1)); free != 2.0/8 || eng.Pending() != 0 {
		t.Fatalf("setup: %v of 8 blocks free, %d pending events; want the 2-block reserve and an idle device", free, eng.Pending())
	}
	return eng, p, v
}

// TestStalledRequestPollsAsOneRun follows a 16-page write into a full
// tenant: its pages stall as one retry-lane entry, every poll fails all 16
// on the stall's own lattice in one event, and once GC has freed a block
// the pages go out in LPN order at the next lattice point.
func TestStalledRequestPollsAsOneRun(t *testing.T) {
	eng, p, v := fullTenant(t)
	tn := v.Tenant()
	const pages = 16
	done := false
	stalledAt := eng.Now()
	v.Submit(&Request{Write: true, LPN: 0, Pages: pages, OnComplete: func(*Request, sim.Time) { done = true }})
	if got := p.FTL().Stats().AllocStalls; got != pages {
		t.Fatalf("first dispatch: %d stalls, want %d", got, pages)
	}
	if got := eng.Pending(); got != 1 {
		t.Fatalf("first dispatch left %d pending events, want one stall run", got)
	}
	for k := int64(1); k <= 5; k++ {
		before := p.FTL().Stats().AllocStalls
		if !eng.Step() {
			t.Fatal("the stall run was never polled")
		}
		if want := stalledAt + sim.Time(k)*retryDelay; eng.Now() != want {
			t.Fatalf("poll %d at t=%d, want t=%d", k, eng.Now(), want)
		}
		if got := p.FTL().Stats().AllocStalls - before; got != pages {
			t.Fatalf("poll %d: %d stalls in one event, want %d", k, got, pages)
		}
		if got := eng.Pending(); got != 1 {
			t.Fatalf("poll %d left %d pending events, want the one run", k, got)
		}
	}

	// Trimming a block's worth of data gives GC a victim with nothing to
	// migrate; the next poll kicks its erase, and the first poll after the
	// erase finds a free block.
	for lpn := 16; lpn < 32; lpn++ {
		tn.Trim(lpn)
	}
	hostBefore, freedAt := p.FTL().Stats().HostPrograms, sim.Time(-1)
	for p.FTL().Stats().HostPrograms == hostBefore {
		free := p.FTL().FreeFraction(chanRange(0, 1))
		if !eng.Step() {
			t.Fatal("the engine drained with the write still stalled")
		}
		if p.FTL().FreeFraction(chanRange(0, 1)) > free {
			freedAt = eng.Now()
		}
	}
	now := eng.Now()
	if (now-stalledAt)%retryDelay != 0 || freedAt < 0 || now <= freedAt || now-freedAt > retryDelay {
		t.Fatalf("pages dispatched at t=%d, block freed at t=%d: want the first point of the lattice from t=%d after the free", now, freedAt, stalledAt)
	}
	eng.Run()
	if !done || p.FTL().Stats().HostPrograms-hostBefore != pages {
		t.Fatalf("completed=%v with %d pages programmed, want all %d", done, p.FTL().Stats().HostPrograms-hostBefore, pages)
	}
	// The erased block took the pages in dispatch order.
	first, _ := tn.Lookup(0)
	for lpn := 0; lpn < pages; lpn++ {
		ppa, ok := tn.Lookup(lpn)
		if !ok || ppa.BlockOf() != first.BlockOf() || ppa.Page != lpn {
			t.Fatalf("LPN %d at %+v (mapped %v), want page %d of block %+v: pages left out of LPN order", lpn, ppa, ok, lpn, first.BlockOf())
		}
	}
}

// TestStallRunsSplitAndKeepPageOrder stalls the pages of one request by
// hand around what must split a run — another retry on the lane, a page
// that was dispatched, a schedule elsewhere, a gap, another request — and
// checks that the lane holds one entry per unbroken run and that the
// retries dispatch every page in stall order.
func TestStallRunsSplitAndKeepPageOrder(t *testing.T) {
	eng, p, v := oneChipTenant()
	tn := v.Tenant()
	done := 0
	complete := func(*Request, sim.Time) { done++ }
	request := func(lpn, pages int) *Request {
		r := &Request{Write: true, LPN: lpn, Pages: pages, OnComplete: complete}
		r.owner, r.remaining, r.enqueued = v, pages, true
		return r
	}
	r, other := request(0, 10), request(10, 1)

	var gcSawMapped int
	gcRetry := func(sim.EventArg, sim.Time) {
		for lpn := 0; lpn < r.Pages; lpn++ {
			if _, ok := tn.Lookup(lpn); ok {
				gcSawMapped++
			}
		}
	}
	stall := func(r *Request, lpn, n, wantNew int) {
		t.Helper()
		before := eng.Pending()
		v.stall(r, lpn, n)
		if got := eng.Pending() - before; got != wantNew {
			t.Fatalf("stall(%d, %d) added %d lane entries, want %d", lpn, n, got, wantNew)
		}
	}
	stall(r, 0, 1, 1)
	stall(r, 1, 1, 0) // directly behind page 0: the run grows
	p.FTL().ScheduleRetry(gcRetry, sim.EventArg{})
	stall(r, 2, 1, 1) // behind another retry: a new run
	stall(r, 3, 1, 0)
	if !v.dispatchWrite(r, 4) {
		t.Fatal("page 4 found no space on an empty device")
	}
	stall(r, 5, 1, 1) // behind a dispatched page: a new run
	eng.ScheduleEvent(0, func(sim.EventArg, sim.Time) {}, sim.EventArg{})
	stall(r, 6, 1, 1)      // contiguous, but after a schedule elsewhere: a new run
	stall(r, 8, 2, 1)      // a gap after page 6: a new run
	stall(other, 10, 1, 1) // contiguous, but another request's page: a new run
	stall(r, 7, 1, 1)

	eng.Run()
	if done != 2 {
		t.Fatalf("%d of 2 requests completed", done)
	}
	if gcSawMapped != 3 {
		t.Fatalf("the interleaved retry saw %d pages mapped, want 3 (page 4, then the run before it)", gcSawMapped)
	}
	// Page 4 went out first, then the runs in lane order.
	base, _ := tn.Lookup(4)
	for i, lpn := range []int{4, 0, 1, 2, 3, 5, 6, 8, 9, 10, 7} {
		ppa, _ := tn.Lookup(lpn)
		if ppa.BlockOf() != base.BlockOf() || ppa.Page != base.Page+i {
			t.Fatalf("LPN %d at %+v, want slot %d after LPN 4's %+v", lpn, ppa, i, base)
		}
	}
}

// TestStallRunZeroAllocSteadyState guards the stall path's steady state: a
// stalled multi-page request polling on its lattice recycles its run and
// allocates nothing.
func TestStallRunZeroAllocSteadyState(t *testing.T) {
	eng, p, v := fullTenant(t)
	v.Submit(&Request{Write: true, LPN: 0, Pages: 16})
	eng.Step() // the first poll recycles the run the dispatch allocated
	before := p.FTL().Stats().AllocStalls
	avg := testing.AllocsPerRun(100, func() { eng.Step() })
	if avg != 0 {
		t.Fatalf("polling a stalled request allocates %.2f allocs/poll, want 0", avg)
	}
	if got := p.FTL().Stats().AllocStalls - before; got != 16*101 {
		t.Fatalf("%d page polls over 101 lattice points, want %d", got, 16*101)
	}
}
