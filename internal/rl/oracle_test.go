package rl

import (
	"math"

	"repro/internal/nn"
)

// trainPerSample is the per-sample PPO update Train's minibatch loop
// replaced, kept test-only as the oracle TestTrainBatchedMatchesScalar
// compares it against bit for bit: the same GAE, shuffle and optimizer
// steps, but every sample of a minibatch makes its own forward/backward
// pair — softmax, surrogate, entropy and loss accumulation interleaved with
// the network calls, one sample at a time. The network calls are one-row
// kernel passes: internal/nn's scalar reference is not importable from
// here, and nn.TestBatchMatchesScalarOracle pins a one-row pass to it, so
// the two identities compose.
func trainPerSample(p *PPO, buf *Buffer, lastValue float64) TrainStats {
	n := buf.Len()
	stats := TrainStats{steps: n}
	if n == 0 {
		return stats
	}
	steps := buf.steps

	// GAE advantages and returns, computed backwards.
	adv, ret, order := make([]float64, n), make([]float64, n), make([]int, n)
	next := lastValue
	gae := 0.0
	for i := n - 1; i >= 0; i-- {
		t := &steps[i]
		mask := 1.0
		if t.Done {
			mask = 0
		}
		delta := t.Reward + gamma*next*mask - t.Value
		gae = delta + gamma*lambda*mask*gae
		adv[i] = gae
		ret[i] = adv[i] + t.Value
		next = t.Value
	}
	// Normalize advantages.
	mean, sd := meanStd(adv)
	for i := range adv {
		if sd > 1e-8 {
			adv[i] = (adv[i] - mean) / sd
		} else {
			adv[i] -= mean
		}
		stats.meanReturn += ret[i]
	}
	stats.meanReturn /= float64(n)

	probs := make([][]float64, len(p.Net.Heads))
	dLogits := make([][]float64, len(p.Net.Heads))
	for k, hd := range p.Net.Heads {
		probs[k] = make([]float64, hd.Out)
		dLogits[k] = make([]float64, hd.Out)
	}
	dVal := make([]float64, 1)

	mb := min(MiniBatch, n)
	var polLoss, valLoss, entSum, klSum float64
	for epoch := 0; epoch < epochs; epoch++ {
		p.rng.PermInto(order)
		for start := 0; start < n; start += mb {
			end := start + mb
			if end > n {
				end = n
			}
			p.Net.ZeroGrad()
			for _, oi := range order[start:end] {
				t := &steps[oi]
				logits, vals, cache := p.Net.ForwardBatch(t.State, 1)
				v := vals[0]

				// New joint log-prob and per-head distributions.
				newLP := 0.0
				for k, ls := range logits {
					nn.Softmax(ls, probs[k])
					newLP += math.Log(math.Max(probs[k][t.Actions[k]], 1e-12))
				}
				klSum += t.LogProb - newLP
				ratio := math.Exp(newLP - t.LogProb)
				a := adv[oi]
				unclipped := ratio * a
				lo, hi := 1-clipEps, 1+clipEps
				cr := math.Min(math.Max(ratio, lo), hi)
				clippedSurr := cr * a

				// d(policy loss)/d(new log-prob): -A*ratio when the
				// unclipped surrogate is active, 0 otherwise.
				var dLP float64
				if unclipped <= clippedSurr {
					dLP = -a * ratio
				}
				polLoss += -math.Min(unclipped, clippedSurr)

				for k, pr := range probs {
					dl := dLogits[k]
					h := nn.Entropy(pr)
					entSum += h
					for j := range pr {
						// Policy gradient through the categorical head.
						onehot := 0.0
						if j == t.Actions[k] {
							onehot = 1
						}
						dl[j] = dLP * (onehot - pr[j])
						// Entropy bonus: loss -= c*H ⇒ grad += c * dH/dl.
						// dH/dl_j = -p_j (log p_j + H).
						dl[j] += entropyCoef * pr[j] * (math.Log(math.Max(pr[j], 1e-12)) + h)
					}
				}
				vErr := v - ret[oi]
				valLoss += 0.5 * vErr * vErr
				dVal[0] = valueCoef * vErr
				p.Net.BackwardBatch(cache, dLogits, dVal)
			}
			p.opt.Step(p.Net.Layers(), float64(end-start))
		}
	}
	total := float64(n * epochs)
	stats.PolicyLoss = polLoss / total
	stats.ValueLoss = valLoss / total
	stats.Entropy = entSum / (total * float64(len(p.Net.Heads)))
	stats.ApproxKL = klSum / total
	buf.Reset()
	return stats
}
