package vssd

import (
	"testing"
	"unsafe"

	"repro/internal/ftl"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestPriorityClamping(t *testing.T) {
	_, p := testPlatform(2)
	v := p.AddVSSD(Config{Name: "a", Channels: chanRange(0, 2)})
	v.setPriority(99)
	if v.Priority() != ftl.PriorityHigh {
		t.Fatalf("priority = %d, want clamped to high", v.Priority())
	}
	v.setPriority(-5)
	if v.Priority() != ftl.PriorityLow {
		t.Fatalf("priority = %d, want clamped to low", v.Priority())
	}
}

func TestZeroPageRequestPanics(t *testing.T) {
	_, p := testPlatform(2)
	v := p.AddVSSD(Config{Name: "a", Channels: chanRange(0, 2)})
	defer func() {
		if recover() == nil {
			t.Fatal("zero-page request must panic")
		}
	}()
	v.Submit(&Request{Write: true, LPN: 0, Pages: 0})
}

func TestLPNWrapAround(t *testing.T) {
	eng, p := testPlatform(2)
	v := p.AddVSSD(Config{Name: "a", Channels: chanRange(0, 2), LogicalPages: 100})
	done := false
	// A request starting near the end of the logical space wraps rather
	// than faulting.
	v.Submit(&Request{Write: true, LPN: 98, Pages: 6,
		OnComplete: func(*Request, sim.Time) { done = true }})
	eng.Run()
	if !done {
		t.Fatal("wrapping request never completed")
	}
}

func TestResetTotalsKeepsWindow(t *testing.T) {
	eng, p := testPlatform(2)
	v := p.AddVSSD(Config{Name: "a", Channels: chanRange(0, 2)})
	v.Submit(&Request{Write: true, LPN: 0, Pages: 1})
	eng.Run()
	v.ResetTotals()
	if v.Completed() != 0 || v.TotalBytesMoved() != 0 || v.TotalHist().Count() != 0 {
		t.Fatal("totals not cleared")
	}
	// The decision window is independent of run totals.
	snap := v.Rotate()
	if snap.Window.Writes != 1 {
		t.Fatal("window lost by ResetTotals")
	}
}

func TestMultipleVSSDsShareDeviceSafely(t *testing.T) {
	eng, p := testPlatform(4)
	a := p.AddVSSD(Config{Name: "a", Channels: chanRange(0, 2)})
	b := p.AddVSSD(Config{Name: "b", Channels: chanRange(2, 4)})
	for i := 0; i < 100; i++ {
		a.Submit(&Request{Write: true, LPN: i % 512, Pages: 1})
		b.Submit(&Request{Write: i%2 == 0, LPN: i % 512, Pages: 2})
	}
	eng.Run()
	if a.Completed() != 100 || b.Completed() != 100 {
		t.Fatalf("completions %d/%d", a.Completed(), b.Completed())
	}
	// Hardware isolation: every page of a lives on channels 0-1.
	for lpn := 0; lpn < 100; lpn++ {
		if ppa, ok := a.Tenant().Lookup(lpn % 512); ok && ppa.Channel > 1 {
			t.Fatalf("tenant a's data leaked to channel %d", ppa.Channel)
		}
	}
}

// TestMeasurementWidths pins the per-vSSD measurement state a decision
// window moves: Rotate builds a snapshot by value, the runner stores it and
// every policy takes it by value, so it has to stay a handful of counters.
// A histogram in the window made each of those copies 16.6 KB.
func TestMeasurementWidths(t *testing.T) {
	if sz := unsafe.Sizeof(WindowSnapshot{}); sz > 128 {
		t.Errorf("WindowSnapshot is %d bytes, want <= 128", sz)
	}
	if sz := unsafe.Sizeof(metrics.Window{}); sz > 96 {
		t.Errorf("metrics.Window is %d bytes, want <= 96", sz)
	}
}

func TestWindowSnapshotSLOFields(t *testing.T) {
	eng, p := testPlatform(2)
	v := p.AddVSSD(Config{Name: "a", Channels: chanRange(0, 2), SLO: 5 * sim.Millisecond})
	v.Submit(&Request{Write: false, LPN: 0, Pages: 1})
	eng.Run()
	snap := v.Rotate()
	if v.SLO() != 5*sim.Millisecond || snap.Window.Reads != 1 || snap.Window.SLOViolations != 0 {
		t.Fatalf("SLO = %v, window reads = %d, violations = %d", v.SLO(), snap.Window.Reads, snap.Window.SLOViolations)
	}
	if snap.VSSD != 0 {
		t.Fatalf("snapshot vssd id = %d", snap.VSSD)
	}
}
