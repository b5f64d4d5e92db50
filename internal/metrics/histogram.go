// Package metrics provides the measurement machinery used throughout the
// FleetIO reproduction: log-bucketed latency histograms with accurate tail
// quantiles, per-window bandwidth/IOPS/SLO counters, and device utilization
// accounting. All values are in virtual-time nanoseconds and bytes.
//
// Everything here reports 0 — never an error or NaN — when no data has
// been recorded (see Histogram.quantile for the rationale), which is what
// lets downstream consumers (SLO calibration, the RL state vector, the
// internal/obs telemetry probes) read mid-run without guarding for
// emptiness.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
)

// histogram layout: values are bucketed by (exponent of the magnitude,
// linear sub-bucket). With 32 sub-buckets per octave the relative
// quantization error is bounded by ~3%, which is ample for P99/P99.9
// comparisons between policies.
const (
	subBucketBits = 5
	subBuckets    = 1 << subBucketBits
)

// octave is the sub-bucket counters of one power-of-two range: the values
// below 32 (exact) for octave 0, [2^(k+4), 2^(k+5)) for octave k > 0.
type octave [subBuckets]int64

// Histogram records non-negative int64 samples (latencies in ns) in
// logarithmic buckets. The zero value is ready to use. Octaves are allocated
// on first use, so a histogram costs what its samples span (~3 KB for a
// device's completions, not 16 KB). Do not copy one after first use: the copy
// shares its octaves.
type Histogram struct {
	octs  [64]*octave
	total int64
	sum   int64
	min   int64
	max   int64
}

func slotFor(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	// exp is the index of the highest set bit; values in
	// [2^exp, 2^(exp+1)) are split into subBuckets linear slots.
	exp := 63 - bits.LeadingZeros64(uint64(v))
	sub := int(v>>(uint(exp)-subBucketBits)) - subBuckets
	return (exp-subBucketBits+1)*subBuckets + sub
}

// slotLow returns the smallest value mapping to slot s; used to report
// quantiles as representative values.
func slotLow(s int) int64 {
	if s < subBuckets {
		return int64(s)
	}
	exp := s/subBuckets + subBucketBits - 1
	sub := s % subBuckets
	return (int64(subBuckets) + int64(sub)) << (uint(exp) - subBucketBits)
}

// Add records one sample. Negative samples are clamped to zero (they can
// only arise from model bugs; clamping keeps measurement total-order safe).
func (h *Histogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	s := slotFor(v)
	h.octave(s >> subBucketBits)[s&(subBuckets-1)]++
	h.total++
	h.sum += v
}

// octave returns octave i's counters, allocating them on first use.
func (h *Histogram) octave(i int) *octave {
	if h.octs[i] == nil {
		h.octs[i] = new(octave)
	}
	return h.octs[i]
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.total }

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// quantile returns an estimate of the q-quantile (q in [0,1]). The estimate
// is the lower bound of the bucket holding the q-th sample, so it is within
// one bucket width (≈3% relative) of the true order statistic.
//
// An empty histogram returns 0 for every q, including q outside [0,1].
// Zero is a deliberate sentinel, not a measurement: no real completion has
// a zero-nanosecond latency, so downstream consumers (SLO calibration,
// telemetry gauges, figure tables) can — and do — treat a zero quantile as
// "no data" rather than an exceptionally fast tail. A NaN q also returns
// the 0 sentinel (int64(NaN) is undefined in Go, so it must not reach the
// rank conversion).
func (h *Histogram) quantile(q float64) int64 {
	if h.total == 0 || math.IsNaN(q) {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	// The q-quantile is the ceil(q*total)-th smallest sample. The product
	// can land one float ulp above an exact integer boundary (0.07*100 =
	// 7.0000000000000009), which would push Ceil one rank too high; shave
	// a relative epsilon before rounding so exact boundaries stay exact.
	rank := int64(math.Ceil(q * float64(h.total) * (1 - 4e-16)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, o := range &h.octs {
		if o == nil {
			continue
		}
		for sub, c := range o {
			seen += c
			if seen >= rank {
				// The first non-empty slot's lower bound may undercut min.
				return max(slotLow(i<<subBucketBits+sub), h.min)
			}
		}
	}
	return h.max
}

// P95, P99, P999 are accessors for the tail quantiles callers read.
func (h *Histogram) P95() int64  { return h.quantile(0.95) }
func (h *Histogram) P99() int64  { return h.quantile(0.99) }
func (h *Histogram) P999() int64 { return h.quantile(0.999) }

// CountAbove returns how many samples exceed v.
func (h *Histogram) CountAbove(v int64) int64 {
	// The sample's own bucket may contain values both above and below v;
	// attribute them conservatively as not-above (bucket lower bound <= v).
	s := slotFor(v)
	from := s&(subBuckets-1) + 1
	var above int64
	for _, o := range h.octs[s>>subBucketBits:] {
		if o != nil {
			for _, c := range o[from:] {
				above += c
			}
		}
		from = 0
	}
	return above
}

// Reset clears all samples; octaves are kept, so refilling allocates nothing.
func (h *Histogram) Reset() {
	for _, o := range &h.octs {
		if o != nil {
			*o = octave{}
		}
	}
	h.total, h.sum, h.min, h.max = 0, 0, 0, 0
}

// String summarizes the distribution for logs.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.0f p50=%d p95=%d p99=%d p999=%d max=%d",
		h.total, h.Mean(), h.quantile(0.50), h.P95(), h.P99(), h.P999(), h.max)
}
