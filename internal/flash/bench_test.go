package flash

import (
	"testing"

	"repro/internal/sim"
)

// benchDriver keeps a closed loop of ops flowing through a device using
// the allocation-free path: AcquireOp + a package-level done handler, no
// capturing closures.
type benchDriver struct {
	d      *Device
	cfg    Config
	rng    *sim.RNG // nil for the read-only saturated-channel load
	issued int
	limit  int
}

// benchIssue submits the next op of the closed loop; ctx is the
// *benchDriver.
func benchIssue(ctx any, _ int64, _ sim.Time, _ OpStatus) {
	dr := ctx.(*benchDriver)
	if dr.issued >= dr.limit {
		return
	}
	dr.issued++
	op := dr.d.AcquireOp()
	if dr.rng == nil {
		op.Kind = OpRead
		op.Addr = PPA{Channel: 0, Chip: dr.issued % dr.cfg.ChipsPerChannel}
	} else {
		op.Kind = OpRead
		if dr.rng.Float64() < 0.3 {
			op.Kind = OpProgram
		}
		op.Addr = PPA{Channel: dr.rng.Intn(dr.cfg.Channels), Chip: dr.rng.Intn(dr.cfg.ChipsPerChannel)}
	}
	op.Done = benchIssue
	op.Ctx = dr
	dr.d.Submit(op)
}

// warm drives n ops through the closed loop outside the timed region so
// the op pool, channel queues, and event heap reach working capacity;
// the timed iterations then measure pure steady state at any benchtime.
func (dr *benchDriver) warm(eng *sim.Engine, prime, n int) {
	dr.issued, dr.limit = 0, n
	for i := 0; i < prime && i < n; i++ {
		benchIssue(dr, 0, 0, StatusOK)
	}
	eng.Run()
	dr.issued = 0
}

// BenchmarkSaturatedChannel measures simulated page reads per wall second
// on one fully loaded channel. Steady state must report 0 allocs/op
// (guarded by TestDeviceDatapathZeroAlloc and scripts/check.sh).
func BenchmarkSaturatedChannel(b *testing.B) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	d := NewDevice(eng, cfg)
	dr := &benchDriver{d: d, cfg: cfg}
	dr.warm(eng, cfg.queueDepth, 4096)
	dr.limit = b.N
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < cfg.queueDepth && i < b.N; i++ {
		benchIssue(dr, 0, 0, StatusOK)
	}
	eng.Run()
}

// BenchmarkMixedDevice measures a full 16-channel device under a
// read/write mix. Steady state must report 0 allocs/op.
func BenchmarkMixedDevice(b *testing.B) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	d := NewDevice(eng, cfg)
	dr := &benchDriver{d: d, cfg: cfg, rng: sim.NewRNG(1)}
	dr.warm(eng, 64, 4096)
	// Replay the warmed RNG sequence so the measured run never exceeds
	// the queue depths (and so the pool high-water mark) warm-up reached.
	dr.rng.Reseed(1)
	dr.limit = b.N
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < 64 && i < b.N; i++ {
		benchIssue(dr, 0, 0, StatusOK)
	}
	eng.Run()
}
