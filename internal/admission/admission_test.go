package admission

import (
	"testing"

	"repro/internal/ftl"
	"repro/internal/sim"
	"repro/internal/vssd"
)

func testSetup() (*sim.Engine, *vssd.Platform, []*vssd.VSSD) {
	eng := sim.NewEngine()
	pc := vssd.DefaultPlatformConfig()
	pc.Flash.Channels = 4
	pc.Flash.ChipsPerChannel = 2
	pc.Flash.BlocksPerChip = 32
	pc.Flash.PagesPerBlock = 8
	p := vssd.NewPlatform(eng, pc)
	a := p.AddVSSD(vssd.Config{Name: "a", Channels: []int{0, 1}})
	b := p.AddVSSD(vssd.Config{Name: "b", Channels: []int{2, 3}})
	return eng, p, []*vssd.VSSD{a, b}
}

// denyList is a provider Policy that forbids specific vSSDs from harvesting
// and/or lending.
type denyList struct {
	noHarvest map[int]bool
	noLend    map[int]bool
}

func (d denyList) AllowHarvest(id int) bool         { return !d.noHarvest[id] }
func (d denyList) AllowMakeHarvestable(id int) bool { return !d.noLend[id] }

func TestImmediateActionsBypassBatch(t *testing.T) {
	_, p, vs := testSetup()
	c := NewController(p, nil)
	c.Submit(vssd.Action{VSSD: 0, Kind: vssd.ActSetPriority, Level: ftl.PriorityHigh})
	if len(c.batch) != 0 {
		t.Fatal("Set_Priority must not be batched")
	}
	if vs[0].Priority() != ftl.PriorityHigh {
		t.Fatal("Set_Priority not applied immediately")
	}
	if c.Stats().Immediate != 1 {
		t.Fatalf("immediate = %d", c.Stats().Immediate)
	}
}

func TestHarvestActionsBatchUntilFlush(t *testing.T) {
	_, p, _ := testSetup()
	c := NewController(p, nil)
	bw := p.FlashConfig().ChannelBandwidth()
	c.Submit(vssd.Action{VSSD: 0, Kind: vssd.ActMakeHarvestable, BW: bw})
	if len(c.batch) != 1 {
		t.Fatal("harvest action must batch")
	}
	if p.GSB().HarvestableChannels(0) != 0 {
		t.Fatal("action executed before flush")
	}
	c.Flush()
	if p.GSB().HarvestableChannels(0) != 1 {
		t.Fatal("flush did not execute the action")
	}
	if len(c.batch) != 0 {
		t.Fatal("batch not cleared")
	}
}

func TestMakeHarvestableOrderedFirst(t *testing.T) {
	// Submit Harvest before Make_Harvestable in the same batch: with
	// reordering the harvest still succeeds because supply lands first.
	_, p, _ := testSetup()
	c := NewController(p, nil)
	bw := p.FlashConfig().ChannelBandwidth()
	c.Submit(vssd.Action{VSSD: 1, Kind: vssd.ActHarvest, BW: bw})
	c.Submit(vssd.Action{VSSD: 0, Kind: vssd.ActMakeHarvestable, BW: bw})
	c.Flush()
	if got := p.GSB().HarvestedChannels(1); got != 1 {
		t.Fatalf("harvested = %d; reordering failed", got)
	}
}

func TestPolicyFilters(t *testing.T) {
	_, p, _ := testSetup()
	c := NewController(p, denyList{
		noHarvest: map[int]bool{1: true},
		noLend:    map[int]bool{0: true},
	})
	bw := p.FlashConfig().ChannelBandwidth()
	c.Submit(vssd.Action{VSSD: 0, Kind: vssd.ActMakeHarvestable, BW: bw})
	c.Submit(vssd.Action{VSSD: 1, Kind: vssd.ActHarvest, BW: bw})
	if c.Stats().Filtered != 2 {
		t.Fatalf("filtered = %d, want 2", c.Stats().Filtered)
	}
	c.Flush()
	if p.GSB().HarvestableChannels(0) != 0 || p.GSB().HarvestedChannels(1) != 0 {
		t.Fatal("filtered actions executed")
	}
}

func TestLeastHarvestedPriorityUnderContention(t *testing.T) {
	eng := sim.NewEngine()
	pc := vssd.DefaultPlatformConfig()
	pc.Flash.Channels = 6
	pc.Flash.ChipsPerChannel = 2
	pc.Flash.BlocksPerChip = 32
	pc.Flash.PagesPerBlock = 8
	p := vssd.NewPlatform(eng, pc)
	lender := p.AddVSSD(vssd.Config{Name: "lender", Channels: []int{0, 1, 2}})
	rich := p.AddVSSD(vssd.Config{Name: "rich", Channels: []int{3, 4}})
	poor := p.AddVSSD(vssd.Config{Name: "poor", Channels: []int{5}})
	_ = lender
	c := NewController(p, nil)
	bw := p.FlashConfig().ChannelBandwidth()
	// First, rich harvests one channel.
	c.Submit(vssd.Action{VSSD: 0, Kind: vssd.ActMakeHarvestable, BW: bw})
	c.Flush()
	c.Submit(vssd.Action{VSSD: rich.ID(), Kind: vssd.ActHarvest, BW: bw})
	c.Flush()
	if p.GSB().HarvestedChannels(rich.ID()) != 1 {
		t.Fatal("setup harvest failed")
	}
	// Lender raises its total budget to 2 channels (the in-use gSB counts
	// toward the target), creating one more idle gSB; both harvesters
	// contend for it, rich submitted first.
	c.Submit(vssd.Action{VSSD: 0, Kind: vssd.ActMakeHarvestable, BW: 2 * bw})
	c.Flush()
	c.Submit(vssd.Action{VSSD: rich.ID(), Kind: vssd.ActHarvest, BW: 2 * bw})
	c.Submit(vssd.Action{VSSD: poor.ID(), Kind: vssd.ActHarvest, BW: bw})
	c.Flush()
	if got := p.GSB().HarvestedChannels(poor.ID()); got != 1 {
		t.Fatalf("poor harvested %d channels; least-harvested priority failed", got)
	}
}

// TestStatsMutuallyExclusive pins the counter contract: every Submit lands
// in exactly one of Immediate (non-harvest pass-through), Filtered (policy
// denial), or — after the flush — Admitted. In particular the
// immediate-execution path must not also count as admitted, and a filtered
// action must never surface in either of the other two.
func TestStatsMutuallyExclusive(t *testing.T) {
	_, p, _ := testSetup()
	c := NewController(p, denyList{noHarvest: map[int]bool{1: true}})
	bw := p.FlashConfig().ChannelBandwidth()

	c.Submit(vssd.Action{VSSD: 0, Kind: vssd.ActSetPriority, Level: ftl.PriorityHigh}) // immediate
	c.Submit(vssd.Action{VSSD: 0, Kind: vssd.ActMakeHarvestable, BW: bw})              // batched
	c.Submit(vssd.Action{VSSD: 1, Kind: vssd.ActHarvest, BW: bw})                      // filtered
	c.Submit(vssd.Action{VSSD: 0, Kind: vssd.ActSetPriority, Level: ftl.PriorityLow})  // immediate

	st := c.Stats()
	if st.Immediate != 2 || st.Filtered != 1 || st.Admitted != 0 {
		t.Fatalf("pre-flush stats %+v, want Immediate=2 Filtered=1 Admitted=0", st)
	}
	c.Flush()
	st = c.Stats()
	if st.Immediate != 2 || st.Filtered != 1 || st.Admitted != 1 {
		t.Fatalf("post-flush stats %+v, want Immediate=2 Filtered=1 Admitted=1", st)
	}
	if total := st.Immediate + st.Filtered + st.Admitted; total != 4 {
		t.Fatalf("counters sum to %d, want one verdict per Submit (4)", total)
	}
	// Flushing again must not re-admit anything.
	c.Flush()
	if got := c.Stats().Admitted; got != 1 {
		t.Fatalf("re-flush re-admitted: %d", got)
	}
}

// TestHarvestFCFSTieBreak pins the deterministic tie-break: when contending
// harvesters hold equal harvested resources, the batch executes them in
// arrival order (sort.SliceStable over an explicit arrival stamp), so
// whoever submitted first wins the last idle gSB — in either submission
// order, on every run.
func TestHarvestFCFSTieBreak(t *testing.T) {
	build := func(firstID, secondID int) int {
		eng := sim.NewEngine()
		pc := vssd.DefaultPlatformConfig()
		pc.Flash.Channels = 6
		pc.Flash.ChipsPerChannel = 2
		pc.Flash.BlocksPerChip = 32
		pc.Flash.PagesPerBlock = 8
		p := vssd.NewPlatform(eng, pc)
		p.AddVSSD(vssd.Config{Name: "lender", Channels: []int{0, 1, 2}})
		p.AddVSSD(vssd.Config{Name: "h1", Channels: []int{3, 4}})
		p.AddVSSD(vssd.Config{Name: "h2", Channels: []int{5}})
		c := NewController(p, nil)
		bw := p.FlashConfig().ChannelBandwidth()
		c.Submit(vssd.Action{VSSD: 0, Kind: vssd.ActMakeHarvestable, BW: bw})
		c.Flush()
		// Both harvesters hold zero harvested channels: a pure FCFS tie.
		c.Submit(vssd.Action{VSSD: firstID, Kind: vssd.ActHarvest, BW: bw})
		c.Submit(vssd.Action{VSSD: secondID, Kind: vssd.ActHarvest, BW: bw})
		c.Flush()
		for _, id := range []int{firstID, secondID} {
			if p.GSB().HarvestedChannels(id) == 1 {
				return id
			}
		}
		return -1
	}
	for run := 0; run < 3; run++ {
		if got := build(1, 2); got != 1 {
			t.Fatalf("run %d: winner = %d, want first submitter 1", run, got)
		}
		if got := build(2, 1); got != 2 {
			t.Fatalf("run %d: winner = %d, want first submitter 2", run, got)
		}
	}
}

func TestPeriodicFlush(t *testing.T) {
	eng, p, _ := testSetup()
	c := NewController(p, nil)
	c.Start()
	c.Start() // idempotent
	bw := p.FlashConfig().ChannelBandwidth()
	c.Submit(vssd.Action{VSSD: 0, Kind: vssd.ActMakeHarvestable, BW: bw})
	eng.RunUntil(60 * sim.Millisecond)
	if p.GSB().HarvestableChannels(0) != 1 {
		t.Fatal("periodic flush did not run within the 50ms interval")
	}
	if c.Stats().Batches != 1 {
		t.Fatalf("batches = %d", c.Stats().Batches)
	}
}

func TestFlushEmptyIsNoop(t *testing.T) {
	_, p, _ := testSetup()
	c := NewController(p, nil)
	c.Flush()
	if c.Stats().Batches != 0 {
		t.Fatal("empty flush counted as a batch")
	}
}

// TestFlushSteadyStateAllocs pins the batch cycle at zero steady-state
// allocations: the drained batch array is double-buffered back into
// service and the reorder sort uses a concrete sort.Interface (Flush runs
// every 50 ms for the lifetime of a deployment).
func TestFlushSteadyStateAllocs(t *testing.T) {
	_, p, _ := testSetup()
	c := NewController(p, nil)
	cycle := func() {
		// Harvest targets of 0 keep the batch metadata-only, as in
		// BenchmarkAdmissionBatch.
		for j := 0; j < 64; j++ {
			c.Submit(vssd.Action{VSSD: j % 2, Kind: vssd.ActHarvest, BW: 0})
		}
		c.Flush()
	}
	cycle() // size the batch buffers
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("steady-state submit+flush cycle allocates %v per run", avg)
	}
}
