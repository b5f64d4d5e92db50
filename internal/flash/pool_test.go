package flash

import (
	"testing"

	"repro/internal/sim"
)

// TestDeviceDatapathZeroAlloc is the allocation-regression guard for the
// per-I/O path: after warm-up (op pool filled, op queues and the event queue
// grown to their high-water mark), driving a mixed read/write load through
// a full device must not allocate at all.
func TestDeviceDatapathZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	d := NewDevice(eng, cfg)
	dr := &benchDriver{d: d, cfg: cfg, rng: sim.NewRNG(7)}
	// Each drive replays the same op sequence (reseeded RNG), so warm-up
	// establishes every queue's high-water mark and the measured runs can
	// never trigger amortized slice growth — any alloc is a real per-op
	// regression.
	drive := func(n int) {
		dr.rng.Reseed(7)
		dr.issued = 0
		dr.limit = n
		for i := 0; i < 64 && i < n; i++ {
			benchIssue(dr, 0, 0, StatusOK)
		}
		eng.Run()
	}
	drive(4096)
	if allocs := testing.AllocsPerRun(10, func() { drive(4096) }); allocs > 0 {
		t.Fatalf("device datapath: %.1f allocs/run in steady state, want 0", allocs)
	}
}

// TestAcquireOpRecycles pins the pool contract: a completed op goes back
// to the device free list and is handed out again by the next Acquire.
func TestAcquireOpRecycles(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, testConfig())
	op := d.AcquireOp()
	op.Kind = OpRead
	d.Submit(op)
	eng.Run()
	if got := d.AcquireOp(); got != op {
		t.Fatal("completed op must return to the device free list")
	}
}

// TestExternalOpAbsorbed: directly constructed ops are pulled into the
// pool on completion, so legacy callers feed the free list too.
func TestExternalOpAbsorbed(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, testConfig())
	op := &Op{Kind: OpRead}
	d.Submit(op)
	eng.Run()
	if got := d.AcquireOp(); got != op {
		t.Fatal("externally constructed op must be absorbed into the pool")
	}
}

// TestSubmitReleasedOpPanics is the use-after-release detector: once the
// device has recycled an op, resubmitting the stale pointer must panic
// instead of corrupting the free list.
func TestSubmitReleasedOpPanics(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, testConfig())
	op := d.AcquireOp()
	op.Kind = OpRead
	d.Submit(op)
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("resubmitting a released op must panic")
		}
	}()
	d.Submit(op)
}

// TestDoneSeesContextNotOp verifies completion context travels through
// Ctx/CtxI and that the callback fires after the op is back on the free
// list (the Done-side half of the ownership contract).
func TestDoneSeesContextNotOp(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, testConfig())
	type payload struct{ hits int }
	pl := &payload{}
	op := d.AcquireOp()
	op.Kind = OpRead
	op.Ctx = pl
	op.CtxI = 42
	op.Done = func(ctx any, ctxI int64, _ sim.Time, _ OpStatus) {
		if ctx.(*payload) != pl || ctxI != 42 {
			t.Errorf("ctx=%v ctxI=%d, want %v 42", ctx, ctxI, pl)
		}
		ctx.(*payload).hits++
	}
	d.Submit(op)
	eng.Run()
	if pl.hits != 1 {
		t.Fatalf("Done ran %d times, want 1", pl.hits)
	}
	if got := d.AcquireOp(); got != op {
		t.Fatal("op must be released by the time Done has run")
	}
}
