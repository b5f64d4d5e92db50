// Package rl implements Proximal Policy Optimization (PPO-clip) with
// generalized advantage estimation for FleetIO's agents (§3.8: PPO with
// γ=0.9, lr=1e-4, hidden [50,50], batch 32). The policy is multi-discrete:
// one categorical head per action dimension (Harvest, Make_Harvestable,
// Set_Priority), sampled independently with a joint log-probability.
//
// There is one compute path: Train runs each minibatch through one
// forward/backward pair of internal/nn's row-major kernels, the ActBatch
// family serves any number of agents in one matrix pass, and a single
// state (Act, ActGreedy) is that pass at one row. The per-sample update the
// minibatch loop replaced is the test-only oracle in oracle_test.go (see
// docs/PERFORMANCE.md "Batched RL kernels").
package rl

import (
	"math"

	"repro/internal/nn"
	"repro/internal/sim"
)

// The paper's PPO hyperparameters (Table 3: γ, batch size) with standard
// values for the ones it does not report. No caller varies them, so they
// are constants; only the learning rate is a Config field. They are typed,
// so a product such as gamma*lambda rounds as the same product of two
// float64 variables does.
const (
	gamma       float64 = 0.9  // discount factor
	lambda      float64 = 0.95 // GAE smoothing
	clipEps     float64 = 0.2  // PPO clip range
	epochs      int     = 4    // optimization passes per Train call
	entropyCoef float64 = 0.01
	valueCoef   float64 = 0.5

	// MiniBatch is the minibatch size; a deployed agent trains once it
	// has buffered this many transitions.
	MiniBatch int = 32
)

// defaultLR is Table 3's learning rate, the one a zero Config.LR means.
const defaultLR = 1e-4

// Config holds the learner's one tunable, the Adam learning rate:
// deployment fine-tunes at Table 3's 1e-4, offline pretraining at 1e-3.
type Config struct {
	LR float64 // Adam learning rate (0 → 1e-4)
}

// DefaultConfig returns the paper's learning rate (Table 3).
func DefaultConfig() Config { return Config{LR: defaultLR} }

// Resolved is c with a zero LR replaced by the paper's 1e-4.
func (c Config) Resolved() Config {
	if c.LR == 0 {
		c.LR = defaultLR
	}
	return c
}

// Transition is one (state, action, reward) step collected from the
// environment.
type Transition struct {
	State   []float64
	Actions []int
	LogProb float64
	Value   float64
	Reward  float64
	Done    bool
}

// Buffer accumulates transitions between Train calls.
type Buffer struct {
	steps []Transition
}

// Add appends a transition.
func (b *Buffer) Add(t Transition) { b.steps = append(b.steps, t) }

// Len returns the number of buffered transitions.
func (b *Buffer) Len() int { return len(b.steps) }

// Reset clears the buffer.
func (b *Buffer) Reset() { b.steps = b.steps[:0] }

// Steps exposes the buffered transitions (not a copy).
func (b *Buffer) Steps() []Transition { return b.steps }

// Append copies every transition of other into b, leaving other untouched.
func (b *Buffer) Append(other *Buffer) {
	b.steps = append(b.steps, other.steps...)
}

// MarkDone marks the final buffered transition as episode-terminal so GAE
// does not bootstrap across the boundary when buffers are merged.
func (b *Buffer) MarkDone() {
	if n := len(b.steps); n > 0 {
		b.steps[n-1].Done = true
	}
}

// MeanReward returns the average per-transition reward (0 when empty) —
// the episode score the trainer's eval gate compares.
func (b *Buffer) MeanReward() float64 {
	if len(b.steps) == 0 {
		return 0
	}
	sum := 0.0
	for i := range b.steps {
		sum += b.steps[i].Reward
	}
	return sum / float64(len(b.steps))
}

// Merge concatenates rollout buffers (e.g. one per agent or per parallel
// episode) into a fresh buffer, in argument order so merged training data
// is deterministic regardless of collection scheduling.
func Merge(bufs ...*Buffer) *Buffer {
	out := &Buffer{}
	for _, b := range bufs {
		if b != nil {
			out.Append(b)
		}
	}
	return out
}

// TrainStats summarizes one Train call.
type TrainStats struct {
	steps      int
	PolicyLoss float64
	ValueLoss  float64
	Entropy    float64
	meanReturn float64
	ApproxKL   float64 // mean(old logπ − new logπ) over optimized samples
}

// PPO is the learner: a policy/value network plus its optimizer.
type PPO struct {
	Net *nn.ActorCritic
	opt *nn.Adam
	rng *sim.RNG

	// Scratch: row-major minibatch matrices for Train and the ActBatch
	// family (softmax probabilities, logit and value gradients, greedy
	// actions), grown to the largest batch seen (trainCap) so the
	// per-window inference and the training inner loop allocate nothing in
	// steady state. Scratch is consumed before the next call, mirroring the
	// ForwardBatch cache contract in internal/nn. advS/retS/orderS persist
	// the GAE buffers across Train calls for the same reason.
	trainCap  int
	xsB       []float64
	probsB    [][]float64
	dLogitsB  [][]float64
	dValsB    []float64
	logProbsB []float64
	valsB     []float64
	actsB     [][]int
	actsBack  []int
	advS      []float64
	retS      []float64
	orderS    []int
}

// batchScratch sizes the scratch for b rows.
func (p *PPO) batchScratch(b int) {
	if b <= p.trainCap {
		return
	}
	heads := p.Net.Heads
	p.xsB = make([]float64, b*p.Net.L1.In)
	p.probsB = make([][]float64, len(heads))
	p.dLogitsB = make([][]float64, len(heads))
	for k, hd := range heads {
		p.probsB[k] = make([]float64, b*hd.Out)
		p.dLogitsB[k] = make([]float64, b*hd.Out)
	}
	p.dValsB = make([]float64, b)
	p.logProbsB = make([]float64, b)
	p.valsB = make([]float64, b)
	p.actsBack = make([]int, b*len(heads))
	p.actsB = make([][]int, b)
	for r := range p.actsB {
		p.actsB[r] = p.actsBack[r*len(heads) : (r+1)*len(heads)]
	}
	p.trainCap = b
}

// New builds a PPO learner around the network.
func New(net *nn.ActorCritic, cfg Config, rng *sim.RNG) *PPO {
	return &PPO{Net: net, opt: nn.NewAdam(cfg.LR), rng: rng}
}

// Act samples one action per head for a single state and returns the joint
// log-probability and the value estimate: ActBatch at one row. The returned
// actions slice is freshly allocated (transitions retain it across
// training).
func (p *PPO) Act(state []float64) (actions []int, logProb, value float64) {
	acts, lps, vals := p.ActBatch(state, 1)
	return acts[0], lps[0], vals[0]
}

// ActGreedy returns the argmax action per head for a single state
// (deployment mode): ActGreedyBatch at one row. The returned slice is
// reused by the next greedy call on this learner so the per-window
// inference is allocation-free; copy it to retain it.
func (p *PPO) ActGreedy(state []float64) []int { return p.ActGreedyBatch(state, 1)[0] }

// ActBatch samples one action per head for each of b states stacked
// row-major in states (b×In), returning per-row actions, joint
// log-probabilities and value estimates. It is bit-identical to b one-row
// calls in ascending order: row r of the forward pass depends on row r
// alone, and the categorical sampling consumes the learner's RNG in (row,
// head) order. Each actions row is freshly allocated (transitions retain
// them); logProbs and values are scratch reused by the next call.
func (p *PPO) ActBatch(states []float64, b int) (actions [][]int, logProbs, values []float64) {
	return p.actEval(states, b, false)
}

// ActGreedyEvalBatch is ActBatch with the argmax action per head in place
// of a sample: the joint log-probability is still the one under the
// stochastic policy, so greedy deployments can record trainable
// transitions. It draws nothing from the RNG.
func (p *PPO) ActGreedyEvalBatch(states []float64, b int) (actions [][]int, logProbs, values []float64) {
	return p.actEval(states, b, true)
}

// actEval is the row loop behind ActBatch and ActGreedyEvalBatch: one
// forward pass, then per row and head a softmax, the action (argmax when
// greedy, else a categorical sample) and its log-probability.
func (p *PPO) actEval(states []float64, b int, greedy bool) (actions [][]int, logProbs, values []float64) {
	p.batchScratch(b)
	logits, vals, _ := p.Net.ForwardBatch(states, b)
	actions = make([][]int, b)
	for r := 0; r < b; r++ {
		acts := make([]int, len(logits))
		lp := 0.0
		for k, ls := range logits {
			w := p.Net.Heads[k].Out
			row := ls[r*w : (r+1)*w]
			pr := p.probsB[k][r*w : (r+1)*w]
			nn.Softmax(row, pr)
			var a int
			if greedy {
				a = nn.Argmax(row)
			} else {
				a = nn.SampleCategorical(p.rng, pr)
			}
			acts[k] = a
			lp += math.Log(math.Max(pr[a], 1e-12))
		}
		actions[r] = acts
		p.logProbsB[r] = lp
	}
	copy(p.valsB[:b], vals)
	return actions, p.logProbsB[:b], p.valsB[:b]
}

// ActGreedyBatch returns the argmax action per head for each of b stacked
// states (deployment mode): no softmax, no RNG, no allocation. The returned
// rows are views into scratch reused by the next greedy call.
func (p *PPO) ActGreedyBatch(states []float64, b int) [][]int {
	p.batchScratch(b)
	logits, _, _ := p.Net.ForwardBatch(states, b)
	for r := 0; r < b; r++ {
		for k, ls := range logits {
			w := p.Net.Heads[k].Out
			p.actsB[r][k] = nn.Argmax(ls[r*w : (r+1)*w])
		}
	}
	return p.actsB[:b]
}

// Train runs PPO on the buffered transitions. lastValue bootstraps the
// return of the final transition when the episode did not terminate. The
// buffer is consumed (reset) afterwards.
//
// Each minibatch makes one ForwardBatch / BackwardBatch pair: the shuffled
// samples are gathered into one matrix, the network runs once, and the
// per-sample scalar math (softmax, surrogate, entropy, loss accumulation)
// runs row by row in the shuffled order — bit-identical to a per-sample
// forward/backward loop (the oracle in oracle_test.go), because the kernels
// reproduce the scalar network's operation sequence exactly
// (internal/nn/batch.go).
func (p *PPO) Train(buf *Buffer, lastValue float64) TrainStats {
	n := buf.Len()
	stats := TrainStats{steps: n}
	if n == 0 {
		return stats
	}
	steps := buf.steps

	// GAE advantages and returns, computed backwards (persistent scratch —
	// Train runs every few windows for the lifetime of a deployment).
	if cap(p.advS) < n {
		p.advS = make([]float64, n)
		p.retS = make([]float64, n)
		p.orderS = make([]int, n)
	}
	adv, ret, order := p.advS[:n], p.retS[:n], p.orderS[:n]
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
			// Gather the shuffled minibatch into one matrix, run the
			// network once, then do the per-sample scalar math row by row.
			b := end - start
			p.batchScratch(b)
			in := p.Net.L1.In
			xs := p.xsB[:b*in]
			for r, oi := range order[start:end] {
				copy(xs[r*in:(r+1)*in], steps[oi].State)
			}
			logits, vals, cache := p.Net.ForwardBatch(xs, b)
			for k := range logits {
				w := p.Net.Heads[k].Out
				nn.SoftmaxBatch(logits[k], p.probsB[k], b, w)
			}
			for r := 0; r < b; r++ {
				oi := order[start+r]
				t := &steps[oi]
				// New joint log-prob under the per-head distributions.
				newLP := 0.0
				for k := range logits {
					w := p.Net.Heads[k].Out
					newLP += math.Log(math.Max(p.probsB[k][r*w+t.Actions[k]], 1e-12))
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

				for k := range logits {
					w := p.Net.Heads[k].Out
					pr := p.probsB[k][r*w : (r+1)*w]
					dl := p.dLogitsB[k][r*w : (r+1)*w]
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
				vErr := vals[r] - ret[oi]
				valLoss += 0.5 * vErr * vErr
				p.dValsB[r] = valueCoef * vErr
			}
			p.Net.BackwardBatch(cache, p.dLogitsB, p.dValsB[:b])
			p.opt.Step(p.Net.Layers(), float64(b))
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

func meanStd(xs []float64) (mean, sd float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		sd += d * d
	}
	sd = math.Sqrt(sd / float64(len(xs)))
	return mean, sd
}
