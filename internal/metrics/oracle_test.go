package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The dense reference histogram: one 8-byte counter for every slot of every
// octave, 16 KB whether a sample ever lands there or not. Kept verbatim and
// test-only as the oracle TestHistogramMatchesDenseOracle compares Histogram
// against, for every method and every input. It shares slotFor/slotLow with
// Histogram: the bucketing is the contract, the storage is what may differ.
const histogramSlots = 64 * subBuckets

type denseHistogram struct {
	counts [histogramSlots]int64
	total  int64
	sum    int64
	min    int64
	max    int64
}

func (h *denseHistogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[slotFor(v)]++
	h.total++
	h.sum += v
}

func (h *denseHistogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

func (h *denseHistogram) quantile(q float64) int64 {
	if h.total == 0 || math.IsNaN(q) {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q * float64(h.total) * (1 - 4e-16)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for s := 0; s < histogramSlots; s++ {
		seen += h.counts[s]
		if seen >= rank {
			lo := slotLow(s)
			if lo < h.min {
				lo = h.min
			}
			if lo > h.max {
				lo = h.max
			}
			return lo
		}
	}
	return h.max
}

func (h *denseHistogram) CountAbove(v int64) int64 {
	if h.total == 0 {
		return 0
	}
	s := slotFor(v)
	var above int64
	for i := s + 1; i < histogramSlots; i++ {
		above += h.counts[i]
	}
	return above
}

func (h *denseHistogram) Merge(o *denseHistogram) {
	if o.total == 0 {
		return
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.total += o.total
	h.sum += o.sum
}

func (h *denseHistogram) Reset() { *h = denseHistogram{} }

func (h *denseHistogram) String() string {
	return fmt.Sprintf("n=%d mean=%.0f p50=%d p95=%d p99=%d p999=%d max=%d",
		h.total, h.Mean(), h.quantile(0.50), h.quantile(0.95), h.quantile(0.99), h.quantile(0.999), h.max)
}

// oracleSample draws a latency log-uniform over 0 … 2^62 (every octave is
// as likely as every other) or, when narrow, uniform over the 50 µs – 50 ms
// a device's completions span; one time in eight it returns an edge of the
// bucketing instead: zero, a negative, the last exact value and the first
// bucketed one, either side of a power of two, the largest int64.
func oracleSample(r *rand.Rand, narrow bool) int64 {
	if r.Intn(8) == 0 {
		k := uint(1 + r.Intn(62))
		edges := [...]int64{0, -1, -1 << 40, 31, 32, 1<<k - 1, 1 << k, math.MaxInt64}
		return edges[r.Intn(len(edges))]
	}
	if narrow {
		return 50_000 + r.Int63n(50_000_000)
	}
	return (r.Int63() >> 1) >> uint(r.Intn(63))
}

// TestHistogramMatchesDenseOracle drives three Histograms and three dense
// references through the same random interleaving of Add, Merge and Reset
// and requires every read — Count, Sum, Min, Max, Mean, String, Quantile at
// in-range, boundary and out-of-range q, CountAbove at every sample ever
// added — to agree exactly. Even seeds draw the narrow span, odd seeds the
// wide one. Sum may wrap (samples reach 2^63-1); it wraps the same way on
// both sides.
func TestHistogramMatchesDenseOracle(t *testing.T) {
	qs := []float64{0, 1e-9, .5, .95, .99, .999, 1, math.NaN(), -1, 2}
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		var hs [3]Histogram
		var refs [3]denseHistogram
		var samples []int64
		check := func(step int) {
			t.Helper()
			for i := range hs {
				h, ref := &hs[i], &refs[i]
				if h.Count() != ref.total || h.Sum() != ref.sum || h.min != ref.min || h.max != ref.max || h.Mean() != ref.Mean() {
					t.Fatalf("seed %d step %d hist %d: n/sum/min/max/mean %d/%d/%d/%d/%v, dense %d/%d/%d/%d/%v",
						seed, step, i, h.Count(), h.Sum(), h.min, h.max, h.Mean(), ref.total, ref.sum, ref.min, ref.max, ref.Mean())
				}
				if got, want := h.String(), ref.String(); got != want {
					t.Fatalf("seed %d step %d hist %d: String %q, dense %q", seed, step, i, got, want)
				}
				for _, q := range qs {
					if got, want := h.quantile(q), ref.quantile(q); got != want {
						t.Fatalf("seed %d step %d hist %d: Quantile(%v) = %d, dense %d", seed, step, i, q, got, want)
					}
				}
				for _, v := range samples {
					if got, want := h.CountAbove(v), ref.CountAbove(v); got != want {
						t.Fatalf("seed %d step %d hist %d: CountAbove(%d) = %d, dense %d", seed, step, i, v, got, want)
					}
				}
			}
		}
		check(0)
		for step := 1; step <= 600; step++ {
			i := r.Intn(len(hs))
			switch op := r.Intn(100); {
			case op < 90:
				v := oracleSample(r, seed%2 == 0)
				hs[i].Add(v)
				refs[i].Add(v)
				samples = append(samples, v)
			case op < 97:
				j := r.Intn(len(hs))
				if j == i {
					continue // a histogram is never merged into itself
				}
				hs[i].Merge(&hs[j])
				refs[i].Merge(&refs[j])
			default:
				hs[i].Reset()
				refs[i].Reset()
			}
			if step%50 == 0 {
				check(step)
			}
		}
		check(-1)
	}
}
