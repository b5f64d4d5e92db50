package obs

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// sinkHist keeps the timed loops below observable by the compiler.
var sinkHist metrics.Histogram

// hotLoop models the instrumented completion path: a histogram add (the
// BenchmarkHistogramAdd hot path) plus, when traced is true, the exact
// nil-receiver recorder call vssd.pageDone makes. rec stays nil — this
// measures the DISABLED cost, which is the overhead every untraced
// benchmark run pays.
func hotLoop(iters int, traced bool) time.Duration {
	var rec *Recorder
	sinkHist.Reset()
	start := time.Now()
	for i := 0; i < iters; i++ {
		lat := int64(100 + i%1000)
		sinkHist.Add(lat)
		if traced {
			rec.SLOViolation(i&7, lat, 50)
		}
	}
	return time.Since(start)
}

// bestOf returns the fastest of n timings — minimums are far more stable
// than means on a shared machine, and the minimum is the honest cost of
// the code (everything above it is scheduler noise).
func bestOf(n, iters int, traced bool) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < n; i++ {
		if d := hotLoop(iters, traced); d < best {
			best = d
		}
	}
	return best
}

// TestDisabledRecorderOverhead is the <2% guard from the observability
// issue: a nil *Recorder in the per-page completion path must not slow a
// histogram-add-style hot loop measurably. The threshold allows 2%
// relative plus a 0.7 ns/op absolute floor (one mispredicted branch of
// slack) so the test stays robust to timer quantization; persistent
// regressions such as an allocation or a mutex on the disabled path
// exceed it by an order of magnitude.
func TestDisabledRecorderOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive guard skipped in -short")
	}
	const iters = 2_000_000
	const trials = 9
	hotLoop(iters, true) // warm up code and caches
	var base, traced time.Duration
	for attempt := 0; attempt < 5; attempt++ {
		base = bestOf(trials, iters, false)
		traced = bestOf(trials, iters, true)
		limit := time.Duration(float64(base)*1.02) + time.Duration(0.7*iters)
		if traced <= limit {
			return
		}
		t.Logf("attempt %d: base %v traced %v limit %v", attempt, base, traced, limit)
	}
	perOp := float64(traced-base) / iters
	t.Fatalf("disabled recorder adds %.2fns/op (%v vs %v baseline, >2%% + 0.7ns slack)",
		perOp, traced, base)
}

func BenchmarkDisabledRecorderEmit(b *testing.B) {
	var rec *Recorder
	for i := 0; i < b.N; i++ {
		rec.SLOViolation(i&7, int64(i), 50)
	}
}

func BenchmarkEnabledRecorderEmit(b *testing.B) {
	rec := newRecorder()
	rec.setClock(func() sim.Time { return 1 })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.SLOViolation(i&7, int64(i), 50)
	}
}
