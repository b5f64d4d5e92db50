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
	v.SetSLO(sim.Second) // generous: nothing violates
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
	if got := len(bi.Tenant().WriteChannels()); got != 3 {
		t.Fatalf("write channels = %d, want 3", got)
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

func TestSetRateLimitAction(t *testing.T) {
	_, p := testPlatform(2)
	v := p.AddVSSD(Config{Name: "a", Channels: chanRange(0, 2)})
	p.Apply(Action{VSSD: 0, Kind: ActSetRateLimit, BW: 1e6})
	if v.cfg.RateLimitBps != 1e6 {
		t.Fatal("rate limit not applied")
	}
}

func TestUtilizationMath(t *testing.T) {
	_, p := testPlatform(2)
	peak := p.FlashConfig().ChannelBandwidth() * 2
	// Moving peak bytes for one second = 100% utilization.
	got := p.Utilization(int64(peak), sim.Second)
	if got < 0.999 || got > 1.001 {
		t.Fatalf("utilization = %v, want 1.0", got)
	}
	if p.Utilization(100, 0) != 0 {
		t.Fatal("zero duration must give 0")
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
	if r.Bytes(4096) != 12288 {
		t.Fatalf("bytes = %d", r.Bytes(4096))
	}
}

func TestIsolationString(t *testing.T) {
	if HardwareIsolated.String() != "hardware" || SoftwareIsolated.String() != "software" {
		t.Fatal("isolation strings wrong")
	}
}

func TestActionKindString(t *testing.T) {
	kinds := []ActionKind{ActHarvest, ActMakeHarvestable, ActSetPriority, ActSetChannels, ActSetRateLimit}
	want := []string{"Harvest", "Make_Harvestable", "Set_Priority", "Set_Channels", "Set_RateLimit"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Fatalf("kind %d = %q", i, k.String())
		}
	}
}

var _ = flash.OpRead // silence potential unused import if assertions change

// TestStalledWriteRetriesOnItsOwnLattice pins the allocation-stall
// protocol every overloaded figure's latencies are made of: a host page
// that finds no space polls again every ftl.RetryDelay counted from the
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
	tn := v.Tenant()

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
		before, free := tn.Stats(), p.FTL().FreeBlocks(0)
		if !eng.Step() {
			break
		}
		now, after := eng.Now(), tn.Stats()
		if p.FTL().FreeBlocks(0) > free {
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
			if want := stalledAt + sim.Time(polls)*ftl.RetryDelay; now != want {
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
			if freedAt == none || now <= freedAt || now-freedAt > ftl.RetryDelay {
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
