package core

import "repro/internal/vssd"

// UnifiedAlpha is the fallback α for unknown workload types (§3.4).
const UnifiedAlpha = 0.01

// Fine-tuned α values per workload type (§3.8).
const (
	AlphaLC1 = 2.5e-2 // broad latency-sensitive cluster
	AlphaLC2 = 5e-3   // YCSB-like low-entropy cluster
	AlphaBI  = 0.0    // bandwidth-intensive ("TO") cluster
)

// defaultBeta is the paper's reward-mixing coefficient: an agent's reward
// is β·own + (1-β)·mean(others) (Eq. 2).
const defaultBeta = 0.6

// sloVioGuar is the guaranteed SLO-violation budget (1% in §3.3.3): Eq. 1
// normalizes the violation rate by it, and an agent past it escalates its
// priority.
const sloVioGuar = 0.01

// singleReward computes Eq. 1 for one vSSD window:
//
//	R = (1-α)·AvgBW/AvgBW_guar − α·SLO_Vio/SLO_Vio_guar
func singleReward(alpha float64, snap vssd.WindowSnapshot, guaranteedBW, sloVioGuar float64) float64 {
	dur := snap.Duration
	if dur <= 0 {
		dur = 1
	}
	bwTerm := snap.Window.Bandwidth(dur) / nz(guaranteedBW)
	vioTerm := snap.Window.SLOViolationRate() / nz(sloVioGuar)
	return (1-alpha)*bwTerm - alpha*vioTerm
}

// mixRewardsInto applies Eq. 2 into out, which per-window callers reuse:
// each agent's reward becomes β·own + (1-β)·mean(others). A single agent
// keeps its own reward.
func mixRewardsInto(single, out []float64, beta float64) []float64 {
	n := len(single)
	out = out[:n]
	if n == 1 {
		out[0] = single[0]
		return out
	}
	var sum float64
	for _, r := range single {
		sum += r
	}
	for i, r := range single {
		others := (sum - r) / float64(n-1)
		out[i] = beta*r + (1-beta)*others
	}
	return out
}
