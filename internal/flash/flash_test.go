package flash

import (
	"testing"

	"repro/internal/sim"
)

func testConfig() Config {
	c := DefaultConfig()
	c.Channels = 2
	c.ChipsPerChannel = 4
	c.BlocksPerChip = 8
	c.PagesPerBlock = 16
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.Channels = 0
	if bad.Validate() == nil {
		t.Fatal("zero channels must be invalid")
	}
	bad = DefaultConfig()
	bad.queueDepth = -1
	if bad.Validate() == nil {
		t.Fatal("negative queue depth must be invalid")
	}
}

func TestConfigDerived(t *testing.T) {
	c := DefaultConfig()
	if got := c.TotalBlocks(); got != 16*4*256 {
		t.Fatalf("total blocks = %d", got)
	}
	bw := c.ChannelBandwidth()
	if bw < 60e6 || bw > 72e6 {
		t.Fatalf("channel bandwidth = %.1f MB/s, want ~64-67 MiB/s", bw/1e6)
	}
}

func TestSingleReadLatency(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, testConfig())
	var done sim.Time
	d.Submit(&Op{Kind: OpRead, Addr: PPA{Channel: 0, Chip: 0, Block: 0, Page: 0},
		Done: func(_ any, _ int64, at sim.Time, _ OpStatus) { done = at }})
	eng.Run()
	want := d.Config().ReadPage + d.Config().transferTime(d.Config().PageSize)
	if done != want {
		t.Fatalf("read completed at %d, want %d", done, want)
	}
}

func TestSingleProgramLatency(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, testConfig())
	var done sim.Time
	d.Submit(&Op{Kind: OpProgram, Addr: PPA{Channel: 0, Chip: 0},
		Done: func(_ any, _ int64, at sim.Time, _ OpStatus) { done = at }})
	eng.Run()
	want := d.Config().transferTime(d.Config().PageSize) + d.Config().ProgramPage
	if done != want {
		t.Fatalf("program completed at %d, want %d", done, want)
	}
}

func TestEraseLatencyAndChipBlocking(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	d := NewDevice(eng, cfg)
	var eraseDone, readDone sim.Time
	d.Submit(&Op{Kind: OpErase, Addr: PPA{Channel: 0, Chip: 0},
		Done: func(_ any, _ int64, at sim.Time, _ OpStatus) { eraseDone = at }})
	// A read on the same chip must wait for the erase; a read on another
	// chip must not.
	var otherChip sim.Time
	d.Submit(&Op{Kind: OpRead, Addr: PPA{Channel: 0, Chip: 0},
		Done: func(_ any, _ int64, at sim.Time, _ OpStatus) { readDone = at }})
	d.Submit(&Op{Kind: OpRead, Addr: PPA{Channel: 0, Chip: 1},
		Done: func(_ any, _ int64, at sim.Time, _ OpStatus) { otherChip = at }})
	eng.Run()
	if eraseDone != cfg.EraseBlock {
		t.Fatalf("erase done at %d, want %d", eraseDone, cfg.EraseBlock)
	}
	if readDone <= cfg.EraseBlock {
		t.Fatalf("same-chip read finished during erase: %d", readDone)
	}
	if otherChip >= cfg.EraseBlock {
		t.Fatalf("other-chip read blocked by erase: %d", otherChip)
	}
}

func TestBusSerialization(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	d := NewDevice(eng, cfg)
	// Two reads on different chips of the same channel: cell senses overlap,
	// bus transfers serialize.
	var first, second sim.Time
	d.Submit(&Op{Kind: OpRead, Addr: PPA{Channel: 0, Chip: 0},
		Done: func(_ any, _ int64, at sim.Time, _ OpStatus) { first = at }})
	d.Submit(&Op{Kind: OpRead, Addr: PPA{Channel: 0, Chip: 1},
		Done: func(_ any, _ int64, at sim.Time, _ OpStatus) { second = at }})
	eng.Run()
	xfer := cfg.transferTime(cfg.PageSize)
	if want := cfg.ReadPage + xfer; first != want {
		t.Fatalf("first read at %d, want %d", first, want)
	}
	if want := cfg.ReadPage + 2*xfer; second != want {
		t.Fatalf("second read at %d, want %d (bus must serialize)", second, want)
	}
}

func TestChannelIndependence(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	d := NewDevice(eng, cfg)
	var a, b sim.Time
	d.Submit(&Op{Kind: OpRead, Addr: PPA{Channel: 0, Chip: 0}, Done: func(_ any, _ int64, at sim.Time, _ OpStatus) { a = at }})
	d.Submit(&Op{Kind: OpRead, Addr: PPA{Channel: 1, Chip: 0}, Done: func(_ any, _ int64, at sim.Time, _ OpStatus) { b = at }})
	eng.Run()
	if a != b {
		t.Fatalf("reads on independent channels should finish together: %d vs %d", a, b)
	}
}

func TestPriorityOrdering(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	cfg.queueDepth = 1 // force strict one-at-a-time so queue order is visible
	d := NewDevice(eng, cfg)
	var order []int
	mk := func(id, prio int) *Op {
		return &Op{Kind: OpRead, Addr: PPA{Channel: 0, Chip: 0}, Priority: prio,
			Done: func(any, int64, sim.Time, OpStatus) { order = append(order, id) }}
	}
	// Occupy the channel first so the rest queue up.
	d.Submit(mk(0, 0))
	d.Submit(mk(1, 0))
	d.Submit(mk(2, 2))
	d.Submit(mk(3, 1))
	eng.Run()
	want := []int{0, 2, 3, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("priority order = %v, want %v", order, want)
		}
	}
}

func TestStridePassOrdering(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	cfg.queueDepth = 1
	d := NewDevice(eng, cfg)
	var order []int
	mk := func(id int, pass float64) *Op {
		return &Op{Kind: OpRead, Addr: PPA{Channel: 0, Chip: 0}, Pass: pass,
			Done: func(any, int64, sim.Time, OpStatus) { order = append(order, id) }}
	}
	d.Submit(mk(0, 0))
	d.Submit(mk(1, 30))
	d.Submit(mk(2, 10))
	d.Submit(mk(3, 20))
	eng.Run()
	want := []int{0, 2, 3, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("stride order = %v, want %v", order, want)
		}
	}
}

func TestQueueDepthLimit(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	cfg.queueDepth = 4
	d := NewDevice(eng, cfg)
	for i := 0; i < 10; i++ {
		d.Submit(&Op{Kind: OpRead, Addr: PPA{Channel: 0, Chip: i % cfg.ChipsPerChannel}})
	}
	if got := d.Inflight(0); got != 4 {
		t.Fatalf("inflight = %d, want 4 (queue depth)", got)
	}
	if got := d.QueueLen(0); got != 6 {
		t.Fatalf("queued = %d, want 6", got)
	}
	eng.Run()
	if d.Inflight(0) != 0 || d.QueueLen(0) != 0 {
		t.Fatal("queue must drain")
	}
}

func TestChannelThroughputCalibration(t *testing.T) {
	// Saturate one channel with reads across all chips; sustained payload
	// bandwidth should approach the configured bus bandwidth (~64 MB/s).
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	d := NewDevice(eng, cfg)
	const pages = 2000
	var completed int
	var last sim.Time
	for i := 0; i < pages; i++ {
		d.Submit(&Op{Kind: OpRead,
			Addr: PPA{Channel: 0, Chip: i % cfg.ChipsPerChannel, Block: 0, Page: i % cfg.PagesPerBlock},
			Done: func(_ any, _ int64, at sim.Time, _ OpStatus) { completed++; last = at }})
	}
	eng.Run()
	if completed != pages {
		t.Fatalf("completed %d of %d", completed, pages)
	}
	bytes := float64(pages) * float64(cfg.PageSize)
	bw := bytes / (float64(last) / 1e9)
	peak := cfg.ChannelBandwidth()
	if bw < 0.9*peak || bw > 1.05*peak {
		t.Fatalf("saturated read bandwidth %.1f MB/s, want ~%.1f MB/s", bw/1e6, peak/1e6)
	}
}

func TestWriteThroughputBusLimited(t *testing.T) {
	// With 4 chips absorbing 500us programs behind a ~244us/page bus, write
	// throughput should also be close to bus-limited.
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	d := NewDevice(eng, cfg)
	const pages = 2000
	var last sim.Time
	for i := 0; i < pages; i++ {
		d.Submit(&Op{Kind: OpProgram,
			Addr: PPA{Channel: 0, Chip: i % cfg.ChipsPerChannel},
			Done: func(_ any, _ int64, at sim.Time, _ OpStatus) { last = at }})
	}
	eng.Run()
	bw := float64(pages) * float64(cfg.PageSize) / (float64(last) / 1e9)
	peak := cfg.ChannelBandwidth()
	if bw < 0.85*peak {
		t.Fatalf("write bandwidth %.1f MB/s too far below bus limit %.1f MB/s", bw/1e6, peak/1e6)
	}
}

func TestStatsAccounting(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	d := NewDevice(eng, cfg)
	d.Submit(&Op{Kind: OpRead, Addr: PPA{Channel: 0, Chip: 0}})
	d.Submit(&Op{Kind: OpProgram, Addr: PPA{Channel: 0, Chip: 1}})
	d.Submit(&Op{Kind: OpErase, Addr: PPA{Channel: 0, Chip: 2}})
	eng.Run()
	st := d.Stats(0)
	if st.Reads != 1 || st.Programs != 1 || st.Erases != 1 {
		t.Fatalf("op counts wrong: %+v", st)
	}
	if st.BytesRead != int64(cfg.PageSize) || st.BytesWritten != int64(cfg.PageSize) {
		t.Fatalf("byte counts wrong: %+v", st)
	}
	if st.BusBusy != 2*cfg.transferTime(cfg.PageSize) {
		t.Fatalf("bus busy = %d", st.BusBusy)
	}
}

func TestSubmitOutOfRangePanics(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, testConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range channel must panic")
		}
	}()
	d.Submit(&Op{Kind: OpRead, Addr: PPA{Channel: 99}})
}

func TestOpKindString(t *testing.T) {
	if OpRead.String() != "read" || OpProgram.String() != "program" || OpErase.String() != "erase" {
		t.Fatal("OpKind strings wrong")
	}
}
