package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.P99() != 0 || h.min != 0 || h.max != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

// TestHistogramEmptyQuantile pins the documented contract: an empty
// histogram returns the 0 "no data" sentinel for every q, including
// out-of-range ones, and keeps doing so after Add+Reset.
func TestHistogramEmptyQuantile(t *testing.T) {
	var h Histogram
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := h.quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
	h.Add(500)
	if h.quantile(0.5) == 0 {
		t.Fatal("non-empty histogram returned the empty sentinel")
	}
	h.Reset()
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.quantile(q); got != 0 {
			t.Fatalf("post-Reset Quantile(%v) = %d, want 0", q, got)
		}
	}
}

func TestHistogramSingle(t *testing.T) {
	var h Histogram
	h.Add(12345)
	if h.Count() != 1 || h.min != 12345 || h.max != 12345 {
		t.Fatalf("single-sample stats wrong: %s", h.String())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		v := h.quantile(q)
		if v != 12345 {
			t.Fatalf("Quantile(%v) = %d, want 12345", q, v)
		}
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	for i := int64(0); i < 32; i++ {
		h.Add(i)
	}
	// Values below subBuckets are stored exactly; rank ceil(0.5*32)=16 is
	// the 16th smallest sample, i.e. value 15.
	if got := h.quantile(0.5); got != 15 {
		t.Fatalf("median of 0..31 = %d, want 15", got)
	}
	if h.min != 0 || h.max != 31 {
		t.Fatalf("min/max = %d/%d", h.min, h.max)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var h Histogram
	samples := make([]int64, 0, 50000)
	for i := 0; i < 50000; i++ {
		// Latency-like distribution: lognormal-ish mix with a heavy tail.
		v := int64(50_000 + r.ExpFloat64()*400_000)
		if r.Intn(100) == 0 {
			v *= 10
		}
		h.Add(v)
		samples = append(samples, v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		idx := int(q*float64(len(samples))) - 1
		if idx < 0 {
			idx = 0
		}
		exact := samples[idx]
		got := h.quantile(q)
		rel := float64(got-exact) / float64(exact)
		if rel < -0.05 || rel > 0.05 {
			t.Fatalf("Quantile(%v) = %d, exact %d, rel err %.3f", q, got, exact, rel)
		}
	}
}

// Merge adds all samples of o into h; merged into a zero value, it is a
// snapshot with octaves of its own.
func (h *Histogram) Merge(o *Histogram) {
	if o.total == 0 {
		return
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for i, src := range &o.octs {
		if src != nil {
			dst := h.octave(i)
			for sub, c := range src {
				dst[sub] += c
			}
		}
	}
	h.total += o.total
	h.sum += o.sum
}

func TestHistogramMerge(t *testing.T) {
	var a, b, c Histogram
	for i := int64(1); i <= 1000; i++ {
		a.Add(i * 100)
		c.Add(i * 100)
	}
	for i := int64(1); i <= 1000; i++ {
		b.Add(i * 1000)
		c.Add(i * 1000)
	}
	a.Merge(&b)
	if a.Count() != c.Count() || a.Sum() != c.Sum() || a.min != c.min || a.max != c.max {
		t.Fatalf("merge mismatch: %s vs %s", a.String(), c.String())
	}
	if a.P99() != c.P99() {
		t.Fatalf("merged P99 %d != direct %d", a.P99(), c.P99())
	}
}

func TestHistogramMergeEmpty(t *testing.T) {
	var a, b Histogram
	a.Add(5)
	a.Merge(&b) // merging empty is a no-op
	if a.Count() != 1 {
		t.Fatal("merge with empty changed count")
	}
	b.Merge(&a)
	if b.Count() != 1 || b.min != 5 || b.max != 5 {
		t.Fatal("merge into empty lost samples")
	}
}

// TestHistogramMergeSnapshotIndependent pins the one safe way to snapshot a
// sparse histogram: Merge into a zero value gets octaves of its own, so the
// source moving afterwards does not move the snapshot. (A plain struct copy
// would share them — see the type's doc comment.)
func TestHistogramMergeSnapshotIndependent(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Add(i * 1000)
	}
	var s Histogram
	s.Merge(&h)
	n, p99, above := s.Count(), s.P99(), s.CountAbove(500_000)
	for i := 0; i < 5000; i++ {
		h.Add(990_000) // same octave as the old P99
		h.Add(1 << 40) // an octave the snapshot never had
	}
	if s.Count() != n || s.P99() != p99 || s.CountAbove(500_000) != above || s.max != 1_000_000 {
		t.Fatalf("snapshot moved with its source: %s (was n=%d p99=%d above=%d)", s.String(), n, p99, above)
	}
	h.Reset()
	if s.Count() != n || s.P99() != p99 {
		t.Fatalf("snapshot cleared by its source's Reset: %s", s.String())
	}
}

// TestMeasurementWidths pins what a histogram costs: the fixed part is the
// octave table and four words, and a device's latencies touch at most 12
// octaves of 256 B — ~3.5 KB against the 16.4 KB of a dense slot array.
func TestMeasurementWidths(t *testing.T) {
	if sz := unsafe.Sizeof(Histogram{}); sz > 640 {
		t.Errorf("Histogram is %d bytes before its first sample, want <= 640", sz)
	}
	r := rand.New(rand.NewSource(3))
	lat := make([]int64, 10_000)
	for i := range lat {
		lat[i] = 50_000 + r.Int63n(49_950_000)
	}
	octs := testing.AllocsPerRun(5, func() {
		var h Histogram
		for _, v := range lat {
			h.Add(v)
		}
	})
	if octs < 1 || octs > 12 {
		t.Errorf("10 000 latencies over 50 us - 50 ms allocated %v octaves, want 1..12", octs)
	}
}

// TestHistogramZeroAllocSteadyState: once a histogram has seen its span,
// Add allocates nothing, and neither does Reset followed by the same span
// again — VSSD.ResetTotals at a measurement boundary keeps the octaves.
func TestHistogramZeroAllocSteadyState(t *testing.T) {
	var h Histogram
	fill := func() {
		for v := int64(50_000); v <= 50_000_000; v += 500_000 {
			h.Add(v)
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(100, fill); allocs != 0 {
		t.Errorf("Add on a warmed histogram: %v allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		h.Reset()
		fill()
	}); allocs != 0 {
		t.Errorf("Reset + re-Add over the same span: %v allocations, want 0", allocs)
	}
	if h.Count() != 100 {
		t.Errorf("Reset kept samples: n=%d, want 100", h.Count())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Add(-100)
	if h.min != 0 || h.Count() != 1 {
		t.Fatalf("negative sample not clamped: min=%d", h.min)
	}
}

func TestHistogramCountAbove(t *testing.T) {
	var h Histogram
	for i := int64(0); i < 100; i++ {
		h.Add(i * 1000)
	}
	above := h.CountAbove(50_000)
	// Conservative bound: strictly-above counting can undercount within one
	// bucket but never overcount.
	if above > 49 || above < 40 {
		t.Fatalf("CountAbove(50000) = %d, want in [40,49]", above)
	}
}

// Property: histogram quantile is sandwiched between the sample min and max,
// monotone in q, and mean/sum/count match direct accumulation.
func TestHistogramQuantileProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		var sum int64
		min, max := int64(raw[0]), int64(raw[0])
		for _, u := range raw {
			v := int64(u)
			h.Add(v)
			sum += v
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if h.Sum() != sum || h.Count() != int64(len(raw)) || h.min != min || h.max != max {
			return false
		}
		prev := int64(-1)
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
			v := h.quantile(q)
			if v < min || v > max || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramQuantileRankOracle checks Quantile against a sorted-sample
// oracle with exact integer rank arithmetic: the q-quantile of n samples is
// the ceil(q*n)-th smallest, and the histogram must return a value in that
// sample's bucket. q values are k/100 fractions so the oracle rank
// (k*n+99)/100 is computed without floats — this is the property the old
// float-only rank broke (0.07*100 rounds to 7.0000000000000009, Ceil'ing
// to rank 8 instead of 7).
func TestHistogramQuantileRankOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 7, 10, 100, 1000, 4096} {
		var h Histogram
		samples := make([]int64, 0, n)
		for i := 0; i < n; i++ {
			v := int64(r.Intn(1_000_000))
			h.Add(v)
			samples = append(samples, v)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for k := 1; k <= 99; k++ {
			q := float64(k) / 100
			rank := (k*n + 99) / 100 // ceil(k*n/100) in exact arithmetic
			oracle := samples[rank-1]
			got := h.quantile(q)
			if slotFor(got) != slotFor(oracle) {
				t.Fatalf("n=%d Quantile(%v) = %d (slot %d), oracle rank %d sample %d (slot %d)",
					n, q, got, slotFor(got), rank, oracle, slotFor(oracle))
			}
		}
	}
}

// TestHistogramQuantileBoundary pins exact behavior when q lands exactly on
// a rank boundary of exactly-stored small values.
func TestHistogramQuantileBoundary(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 10; i++ {
		h.Add(i) // values < subBuckets are stored exactly
	}
	cases := []struct {
		q    float64
		want int64
	}{
		{0.07, 1}, // ceil(0.7) = rank 1 — regression: float error gave rank 2
		{0.1, 1},  // ceil(1.0) = rank 1, exactly on the boundary
		{0.10001, 2},
		{0.5, 5}, // ceil(5.0) = rank 5
		{0.51, 6},
		{0.9, 9},
		{0.99, 10},
	}
	for _, c := range cases {
		if got := h.quantile(c.q); got != c.want {
			t.Fatalf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

// TestHistogramQuantileNaN pins the NaN contract: int64(NaN) is undefined
// behavior in Go, so a NaN q must short-circuit to the 0 sentinel on both
// empty and populated histograms.
func TestHistogramQuantileNaN(t *testing.T) {
	nan := math.NaN()
	var h Histogram
	if got := h.quantile(nan); got != 0 {
		t.Fatalf("empty Quantile(NaN) = %d, want 0", got)
	}
	h.Add(123456)
	if got := h.quantile(nan); got != 0 {
		t.Fatalf("Quantile(NaN) = %d, want 0 sentinel", got)
	}
}

func TestSlotRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, 31, 32, 33, 100, 1023, 1024, 1 << 20, 1<<40 + 12345} {
		s := slotFor(v)
		lo := slotLow(s)
		if lo > v {
			t.Fatalf("slotLow(%d)=%d exceeds value %d", s, lo, v)
		}
		// Relative error bounded by one sub-bucket width.
		if v >= subBuckets {
			if float64(v-lo)/float64(v) > 1.0/subBuckets {
				t.Fatalf("bucket error too large for %d: lo=%d", v, lo)
			}
		} else if lo != v {
			t.Fatalf("small values must be exact: %d -> %d", v, lo)
		}
	}
}

func TestWindowBasics(t *testing.T) {
	var w Window
	const slo = 1_000_000
	w.Complete(false, 4096, 500_000, 100_000, slo)
	w.Complete(true, 8192, 2_000_000, 900_000, slo)
	if w.Reads != 1 || w.Writes != 1 {
		t.Fatalf("counts: %d reads %d writes", w.Reads, w.Writes)
	}
	if w.Bytes() != 12288 {
		t.Fatalf("bytes = %d", w.Bytes())
	}
	if w.SLOViolations != 1 {
		t.Fatalf("SLO violations = %d, want 1", w.SLOViolations)
	}
	if got := w.SLOViolationRate(); got != 0.5 {
		t.Fatalf("violation rate = %v", got)
	}
	if got := w.ReadRatio(); got != 0.5 {
		t.Fatalf("read ratio = %v", got)
	}
	if got := w.AvgLatency(); got != 1_250_000 {
		t.Fatalf("avg latency = %v", got)
	}
	if w.QueueDelaySum != 1_000_000 || w.LatencyCount != 2 {
		t.Fatalf("queue delay sum / count = %d / %d", w.QueueDelaySum, w.LatencyCount)
	}
}

func TestWindowRates(t *testing.T) {
	var w Window
	for i := 0; i < 100; i++ {
		w.Complete(false, 1<<20, 1000, 0, 0)
	}
	const sec = int64(1e9)
	if bw := w.Bandwidth(sec); bw != 100<<20 {
		t.Fatalf("bandwidth = %v", bw)
	}
	if io := w.IOPS(2 * sec); io != 50 {
		t.Fatalf("IOPS = %v", io)
	}
	if w.Bandwidth(0) != 0 || w.IOPS(-1) != 0 {
		t.Fatal("degenerate durations must give 0")
	}
}

func TestWindowIdleReadRatioNeutral(t *testing.T) {
	var w Window
	if w.ReadRatio() != 0.5 {
		t.Fatal("idle window read ratio should be neutral 0.5")
	}
}

func TestWindowMergeAndReset(t *testing.T) {
	var a Window
	a.Complete(false, 100, 10, 1, 5)
	a.Complete(true, 200, 20, 2, 5)
	if a.Requests() != 2 || a.Bytes() != 300 || a.SLOViolations != 2 {
		t.Fatalf("two completions wrong: %+v", a)
	}
	a.Reset()
	if a != (Window{}) {
		t.Fatalf("reset incomplete: %+v", a)
	}
}
