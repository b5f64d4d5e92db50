// Package baseline implements the four comparison policies of §4.1:
//
//   - Hardware Isolation: static, equal, hardware-isolated channel shares.
//   - SSDKeeper: a DNN predicts each vSSD's channel demand from its
//     workload features and fixes a static hardware-isolated partition.
//   - Adaptive: per-window proportional channel reallocation (eZNS-style).
//   - Software Isolation: all vSSDs share all channels behind token-bucket
//     rate limiting and stride scheduling.
//
// Setup helpers configure the platform for each sharing style; the Policy
// implementations provide the runtime behavior.
package baseline

import (
	"math"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/vssd"
)

// HardwareIsolation never acts at runtime; the harness gives each vSSD an
// equal exclusive channel share at setup.
func HardwareIsolation() core.Policy {
	return core.StaticPolicy{PolicyName: "Hardware Isolation"}
}

// SoftwareIsolation never acts at runtime; ConfigureSoftwareIsolation sets
// up the shared channels, token buckets, and stride tickets.
func SoftwareIsolation() core.Policy {
	return core.StaticPolicy{PolicyName: "Software Isolation"}
}

// ConfigureSoftwareIsolation applies the §4.1 software-isolated setup to
// every vSSD: a token-bucket rate limit of shareFactor × (device peak /
// #vSSDs) and equal stride tickets. shareFactor > 1 lets tenants briefly
// exceed their fair share (utilization-friendly, weak isolation).
func ConfigureSoftwareIsolation(p *vssd.Platform, shareFactor float64) {
	n := len(p.VSSDs())
	if n == 0 {
		return
	}
	rate := p.FlashConfig().PeakBandwidth() / float64(n) * shareFactor
	for _, v := range p.VSSDs() {
		v.SetRateLimit(rate, rate/2)
	}
}

// Adaptive reallocates flash channels every window proportionally to each
// vSSD's bandwidth in the prior window, following the elastic-namespace
// approach the paper cites [31]. Every vSSD keeps at least one channel.
type Adaptive struct {
	// totalChannels is the pool being partitioned.
	TotalChannels int
}

// Name implements core.Policy.
func (a *Adaptive) Name() string { return "Adaptive" }

// Decide implements core.Policy.
func (a *Adaptive) Decide(_ sim.Time, snaps []vssd.WindowSnapshot) []vssd.Action {
	n := len(snaps)
	if n == 0 || a.TotalChannels < n {
		return nil
	}
	bws := make([]float64, n)
	total := 0.0
	for i, s := range snaps {
		dur := s.Duration
		if dur <= 0 {
			dur = 1
		}
		bws[i] = s.Window.Bandwidth(dur)
		total += bws[i]
	}
	// Every vSSD keeps a minimum share (a quarter of its equal split) so a
	// briefly idle tenant is throttled, not starved outright.
	floor := a.TotalChannels / n / 4
	if floor < 1 {
		floor = 1
	}
	counts := make([]int, n)
	assigned := 0
	if total <= 0 {
		for i := range counts {
			counts[i] = a.TotalChannels / n
			assigned += counts[i]
		}
	} else {
		for i := range counts {
			counts[i] = int(float64(a.TotalChannels) * bws[i] / total)
			if counts[i] < floor {
				counts[i] = floor
			}
			assigned += counts[i]
		}
	}
	// Fix rounding: give leftovers to (or take overruns from) the largest
	// consumers first.
	for assigned < a.TotalChannels {
		best := argmaxF(bws, counts, +1)
		counts[best]++
		assigned++
	}
	for assigned > a.TotalChannels {
		worst := argminWithFloor(counts, bws, floor)
		if worst < 0 {
			break
		}
		counts[worst]--
		assigned--
	}
	// Carve contiguous ranges.
	actions := make([]vssd.Action, 0, n)
	next := 0
	for i, c := range counts {
		chans := make([]int, 0, c)
		for j := 0; j < c; j++ {
			chans = append(chans, next)
			next++
		}
		actions = append(actions, vssd.Action{VSSD: snaps[i].VSSD, Kind: vssd.ActSetChannels, Channels: chans})
	}
	return actions
}

func argmaxF(bws []float64, counts []int, _ int) int {
	best, bestV := 0, math.Inf(-1)
	for i, b := range bws {
		v := b / float64(counts[i]+1)
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

func argminWithFloor(counts []int, bws []float64, floor int) int {
	best, bestV := -1, math.Inf(1)
	for i, c := range counts {
		if c <= floor {
			continue
		}
		v := bws[i] / float64(c)
		if v < bestV {
			best, bestV = i, v
		}
	}
	return best
}

// SSDKeeper reproduces the paper's learned baseline [26]: a small DNN maps
// observed workload features to a channel demand, and the resulting
// hardware-isolated partition is applied once and kept static (minimizing
// average latency via right-sizing, but unable to track dynamics).
type SSDKeeper struct {
	net *nn.ActorCritic
	// observeWindows is how many windows to watch before partitioning.
	observeWindows int
	totalChannels  int
	channelBW      float64

	seen    int
	sumBW   []float64
	sumIOPS []float64
	decided bool
}

// NewSSDKeeper builds the baseline and trains its demand-prediction DNN on
// synthetic (features → ideal channels) pairs, standing in for the
// original's offline training corpus.
func NewSSDKeeper(totalChannels int, channelBW float64, seed int64) *SSDKeeper {
	rng := sim.NewRNG(seed)
	net := nn.NewActorCritic(3, 16, nil, rng)
	opt := nn.NewAdam(0.01)
	// Ideal demand: enough channels for the offered bandwidth plus 20%
	// headroom — the latency-minimizing static allocation. Each step is one
	// forward/backward pass over a 16-sample batch of squared-error
	// gradients through the value output (the net has no policy heads).
	const batch = 16
	xs := make([]float64, batch*3)
	wants, dVals := make([]float64, batch), make([]float64, batch)
	for step := 0; step < 3000; step++ {
		net.ZeroGrad()
		for b := 0; b < batch; b++ {
			offered := rng.Float64() * float64(totalChannels) * channelBW
			iops := rng.Float64()
			readRatio := rng.Float64()
			want := math.Ceil(offered * 1.2 / channelBW)
			if want < 1 {
				want = 1
			}
			if want > float64(totalChannels) {
				want = float64(totalChannels)
			}
			xs[b*3], xs[b*3+1], xs[b*3+2] = offered/(float64(totalChannels)*channelBW), iops, readRatio
			wants[b] = want
		}
		_, vals, cache := net.ForwardBatch(xs, batch)
		for b, v := range vals {
			dVals[b] = 2 * (v - wants[b])
		}
		net.BackwardBatch(cache, nil, dVals)
		opt.Step(net.Layers(), batch)
	}
	return &SSDKeeper{
		net:            net,
		observeWindows: 3,
		totalChannels:  totalChannels,
		channelBW:      channelBW,
	}
}

// Name implements core.Policy.
func (s *SSDKeeper) Name() string { return "SSDKeeper" }

// predict returns the DNN's channel demand for the given normalized
// features.
func (s *SSDKeeper) predict(bwFrac, iopsNorm, readRatio float64) int {
	_, v, _ := s.net.ForwardBatch([]float64{bwFrac, iopsNorm, readRatio}, 1)
	d := int(math.Round(v[0]))
	if d < 1 {
		d = 1
	}
	if d > s.totalChannels {
		d = s.totalChannels
	}
	return d
}

// Decide implements core.Policy: observe, then partition once.
func (s *SSDKeeper) Decide(_ sim.Time, snaps []vssd.WindowSnapshot) []vssd.Action {
	if s.decided {
		return nil
	}
	n := len(snaps)
	if s.sumBW == nil {
		s.sumBW = make([]float64, n)
		s.sumIOPS = make([]float64, n)
	}
	peak := float64(s.totalChannels) * s.channelBW
	for i, sn := range snaps {
		dur := sn.Duration
		if dur <= 0 {
			dur = 1
		}
		s.sumBW[i] += sn.Window.Bandwidth(dur)
		s.sumIOPS[i] += sn.Window.IOPS(dur)
	}
	s.seen++
	if s.seen < s.observeWindows {
		return nil
	}
	demands := make([]int, n)
	total := 0
	for i := range snaps {
		bw := s.sumBW[i] / float64(s.seen)
		iops := s.sumIOPS[i] / float64(s.seen)
		demands[i] = s.predict(bw/peak, iops/5000, snaps[i].Window.ReadRatio())
		total += demands[i]
	}
	// Scale into the available pool, keeping ≥1 channel each.
	counts := make([]int, n)
	assigned := 0
	for i, d := range demands {
		c := d * s.totalChannels / max(total, 1)
		if c < 1 {
			c = 1
		}
		counts[i] = c
		assigned += c
	}
	for assigned > s.totalChannels {
		idx := -1
		for i, c := range counts {
			if c > 1 && (idx < 0 || c > counts[idx]) {
				idx = i
			}
		}
		if idx < 0 {
			break
		}
		counts[idx]--
		assigned--
	}
	for assigned < s.totalChannels {
		idx := 0
		for i, d := range demands {
			if d > demands[idx] {
				idx = i
			}
		}
		counts[idx]++
		demands[idx] = 0 // spread leftovers
		assigned++
	}
	actions := make([]vssd.Action, 0, n)
	next := 0
	for i, c := range counts {
		chans := make([]int, 0, c)
		for j := 0; j < c; j++ {
			chans = append(chans, next)
			next++
		}
		actions = append(actions, vssd.Action{VSSD: snaps[i].VSSD, Kind: vssd.ActSetChannels, Channels: chans})
	}
	s.decided = true
	return actions
}
