// Package rl implements Proximal Policy Optimization (PPO-clip) with
// generalized advantage estimation for FleetIO's agents (§3.8: PPO with
// γ=0.9, lr=1e-4, hidden [50,50], batch 32). The policy is multi-discrete:
// one categorical head per action dimension (Harvest, Make_Harvestable,
// Set_Priority), sampled independently with a joint log-probability.
//
// Train runs each minibatch through one batched forward/backward pair and
// ActBatch serves many agents in one matrix pass; both are bit-identical
// to the per-sample path, which Config.ScalarKernels keeps selectable as
// the oracle (see docs/PERFORMANCE.md "Batched RL kernels").
package rl

import (
	"math"

	"repro/internal/nn"
	"repro/internal/sim"
)

// Config holds PPO hyperparameters; DefaultConfig mirrors Table 3.
type Config struct {
	Gamma       float64 // discount factor
	Lambda      float64 // GAE smoothing
	ClipEps     float64 // PPO clip range
	LR          float64 // Adam learning rate
	Epochs      int     // optimization passes per Train call
	MiniBatch   int     // minibatch size
	EntropyCoef float64
	ValueCoef   float64

	// ScalarKernels forces Train's per-sample scalar inner loop instead of
	// the batched nn kernels. The two paths are bit-identical by
	// construction (see internal/nn/batch.go); the flag is the single
	// scalar switch, set only by the oracle tests that prove it
	// (TestTrainBatchedMatchesScalar, TestActBatchMatchesScalar, and
	// core's TestDecideBatchedMatchesScalar, where it also forces
	// FleetIO.Decide onto per-agent inference).
	ScalarKernels bool
}

// DefaultConfig returns the paper's hyperparameters (Table 3) with
// standard values for the knobs the paper does not report.
func DefaultConfig() Config {
	return Config{
		Gamma:       0.9,
		Lambda:      0.95,
		ClipEps:     0.2,
		LR:          1e-4,
		Epochs:      4,
		MiniBatch:   32,
		EntropyCoef: 0.01,
		ValueCoef:   0.5,
	}
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
	Steps       int
	PolicyLoss  float64
	ValueLoss   float64
	Entropy     float64
	MeanAdv     float64
	MeanReturn  float64
	ClipVisited float64 // fraction of samples with zeroed (clipped) gradient
	ApproxKL    float64 // mean(old logπ − new logπ) over optimized samples
}

// PPO is the learner: a policy/value network plus its optimizer.
type PPO struct {
	Net *nn.ActorCritic
	cfg Config
	opt *nn.Adam
	rng *sim.RNG

	// Reusable per-head scratch (softmax probabilities, logit gradients,
	// greedy actions), lazily sized from the network's head widths so the
	// per-window inference and the training inner loop allocate nothing
	// in steady state. Scratch is consumed before the next call, mirroring
	// the Forward cache contract in internal/nn.
	probs   [][]float64
	dLogits [][]float64
	greedy  []int

	// Batched scratch: row-major minibatch matrices for Train and the
	// ActBatch family, grown to the largest batch seen (trainCap) so steady
	// state allocates nothing. advS/retS/orderS persist the GAE buffers
	// across Train calls for the same reason.
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

// batchScratch sizes the batched minibatch scratch for b rows.
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

// scratchFor sizes the per-head scratch to match the forward logits.
func (p *PPO) scratchFor(logits [][]float64) {
	if len(p.probs) == len(logits) {
		return
	}
	p.probs = make([][]float64, len(logits))
	p.dLogits = make([][]float64, len(logits))
	for k, ls := range logits {
		p.probs[k] = make([]float64, len(ls))
		p.dLogits[k] = make([]float64, len(ls))
	}
	p.greedy = make([]int, len(logits))
}

// New builds a PPO learner around the network.
func New(net *nn.ActorCritic, cfg Config, rng *sim.RNG) *PPO {
	return &PPO{Net: net, cfg: cfg, opt: nn.NewAdam(cfg.LR), rng: rng}
}

// Config returns the hyperparameters.
func (p *PPO) Config() Config { return p.cfg }

// Act samples one action per head and returns the joint log-probability
// and the value estimate. The returned actions slice is freshly allocated
// (transitions retain it across training).
func (p *PPO) Act(state []float64) (actions []int, logProb, value float64) {
	logits, v, _ := p.Net.Forward(state)
	p.scratchFor(logits)
	actions = make([]int, len(logits))
	logProb = 0
	for k, ls := range logits {
		probs := p.probs[k]
		nn.Softmax(ls, probs)
		a := nn.SampleCategorical(p.rng, probs)
		actions[k] = a
		logProb += math.Log(math.Max(probs[a], 1e-12))
	}
	return actions, logProb, v
}

// ActGreedy returns the argmax action per head (deployment mode). The
// returned slice is reused by the next ActGreedy call on this learner so
// the per-window inference is allocation-free; copy it to retain it.
func (p *PPO) ActGreedy(state []float64) []int {
	logits, _, _ := p.Net.Forward(state)
	p.scratchFor(logits)
	actions := p.greedy
	for k, ls := range logits {
		actions[k] = nn.Argmax(ls)
	}
	return actions
}

// ActGreedyEval returns the argmax action per head together with its joint
// log-probability under the stochastic policy and the value estimate, so
// greedy deployments can still record trainable transitions. The returned
// actions slice is freshly allocated.
func (p *PPO) ActGreedyEval(state []float64) (actions []int, logProb, value float64) {
	logits, v, _ := p.Net.Forward(state)
	p.scratchFor(logits)
	actions = make([]int, len(logits))
	for k, ls := range logits {
		a := nn.Argmax(ls)
		actions[k] = a
		probs := p.probs[k]
		nn.Softmax(ls, probs)
		logProb += math.Log(math.Max(probs[a], 1e-12))
	}
	return actions, logProb, v
}

// Value returns the critic's estimate for a state.
func (p *PPO) Value(state []float64) float64 {
	_, v, _ := p.Net.Forward(state)
	return v
}

// ActBatch is Act over b states stacked row-major in states (b×In). It is
// bit-identical to calling Act on each row in ascending order: the forward
// pass is batched, and the categorical sampling consumes the shared RNG in
// the same (row, head) order the scalar loop would. Each actions row is
// freshly allocated (transitions retain them); logProbs and values are
// scratch reused by the next batched call.
func (p *PPO) ActBatch(states []float64, b int) (actions [][]int, logProbs, values []float64) {
	p.batchScratch(b)
	logits, vals, _ := p.Net.ForwardBatch(states, b)
	actions = make([][]int, b)
	for r := 0; r < b; r++ {
		acts := make([]int, len(logits))
		lp := 0.0
		for k, ls := range logits {
			w := p.Net.Heads[k].Out
			pr := p.probsB[k][r*w : (r+1)*w]
			nn.Softmax(ls[r*w:(r+1)*w], pr)
			a := nn.SampleCategorical(p.rng, pr)
			acts[k] = a
			lp += math.Log(math.Max(pr[a], 1e-12))
		}
		actions[r] = acts
		p.logProbsB[r] = lp
	}
	copy(p.valsB[:b], vals)
	return actions, p.logProbsB[:b], p.valsB[:b]
}

// ActGreedyBatch is ActGreedy over b stacked states. The returned rows are
// views into scratch reused by the next batched call.
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

// ActGreedyEvalBatch is ActGreedyEval over b stacked states, bit-identical
// to the scalar calls in row order. Actions rows are freshly allocated;
// logProbs and values are reused scratch.
func (p *PPO) ActGreedyEvalBatch(states []float64, b int) (actions [][]int, logProbs, values []float64) {
	p.batchScratch(b)
	logits, vals, _ := p.Net.ForwardBatch(states, b)
	actions = make([][]int, b)
	for r := 0; r < b; r++ {
		acts := make([]int, len(logits))
		lp := 0.0
		for k, ls := range logits {
			w := p.Net.Heads[k].Out
			row := ls[r*w : (r+1)*w]
			a := nn.Argmax(row)
			acts[k] = a
			pr := p.probsB[k][r*w : (r+1)*w]
			nn.Softmax(row, pr)
			lp += math.Log(math.Max(pr[a], 1e-12))
		}
		actions[r] = acts
		p.logProbsB[r] = lp
	}
	copy(p.valsB[:b], vals)
	return actions, p.logProbsB[:b], p.valsB[:b]
}

// Train runs PPO on the buffered transitions. lastValue bootstraps the
// return of the final transition when the episode did not terminate. The
// buffer is consumed (reset) afterwards.
//
// Unless cfg.ScalarKernels is set, each minibatch makes one ForwardBatch /
// BackwardBatch pair instead of per-sample network calls. The two inner
// loops are bit-identical: batched rows follow the shuffled sample order,
// every per-sample scalar computation (softmax, surrogate, entropy, loss
// accumulation) runs in that same order, and the batched kernels reproduce
// the scalar kernels' operation sequence exactly (internal/nn/batch.go).
func (p *PPO) Train(buf *Buffer, lastValue float64) TrainStats {
	n := buf.Len()
	stats := TrainStats{Steps: n}
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
		delta := t.Reward + p.cfg.Gamma*next*mask - t.Value
		gae = delta + p.cfg.Gamma*p.cfg.Lambda*mask*gae
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
		stats.MeanReturn += ret[i]
	}
	stats.MeanAdv = mean
	stats.MeanReturn /= float64(n)

	mb := p.cfg.MiniBatch
	if mb <= 0 || mb > n {
		mb = n
	}
	var polLoss, valLoss, entSum, klSum float64
	var clipped, visited float64
	for epoch := 0; epoch < p.cfg.Epochs; epoch++ {
		p.rng.PermInto(order)
		for start := 0; start < n; start += mb {
			end := start + mb
			if end > n {
				end = n
			}
			p.Net.ZeroGrad()
			if p.cfg.ScalarKernels {
				for _, oi := range order[start:end] {
					t := &steps[oi]
					logits, v, cache := p.Net.Forward(t.State)
					p.scratchFor(logits)

					// New joint log-prob and per-head distributions.
					newLP := 0.0
					probs := p.probs
					for k, ls := range logits {
						nn.Softmax(ls, probs[k])
						newLP += math.Log(math.Max(probs[k][t.Actions[k]], 1e-12))
					}
					klSum += t.LogProb - newLP
					ratio := math.Exp(newLP - t.LogProb)
					a := adv[oi]
					unclipped := ratio * a
					lo, hi := 1-p.cfg.ClipEps, 1+p.cfg.ClipEps
					cr := math.Min(math.Max(ratio, lo), hi)
					clippedSurr := cr * a

					// d(policy loss)/d(new log-prob): -A*ratio when the
					// unclipped surrogate is active, 0 otherwise.
					var dLP float64
					if unclipped <= clippedSurr {
						dLP = -a * ratio
					} else {
						clipped++
					}
					visited++
					polLoss += -math.Min(unclipped, clippedSurr)

					dLogits := p.dLogits
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
							dl[j] += p.cfg.EntropyCoef * pr[j] * (math.Log(math.Max(pr[j], 1e-12)) + h)
						}
					}
					vErr := v - ret[oi]
					valLoss += 0.5 * vErr * vErr
					p.Net.Backward(cache, dLogits, p.cfg.ValueCoef*vErr)
				}
			} else {
				// Batched path: gather the shuffled minibatch into one
				// matrix, run the network once, then do the per-sample
				// scalar math row by row — same order, same operations.
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
					newLP := 0.0
					for k := range logits {
						w := p.Net.Heads[k].Out
						newLP += math.Log(math.Max(p.probsB[k][r*w+t.Actions[k]], 1e-12))
					}
					klSum += t.LogProb - newLP
					ratio := math.Exp(newLP - t.LogProb)
					a := adv[oi]
					unclipped := ratio * a
					lo, hi := 1-p.cfg.ClipEps, 1+p.cfg.ClipEps
					cr := math.Min(math.Max(ratio, lo), hi)
					clippedSurr := cr * a
					var dLP float64
					if unclipped <= clippedSurr {
						dLP = -a * ratio
					} else {
						clipped++
					}
					visited++
					polLoss += -math.Min(unclipped, clippedSurr)
					for k := range logits {
						w := p.Net.Heads[k].Out
						pr := p.probsB[k][r*w : (r+1)*w]
						dl := p.dLogitsB[k][r*w : (r+1)*w]
						h := nn.Entropy(pr)
						entSum += h
						for j := range pr {
							onehot := 0.0
							if j == t.Actions[k] {
								onehot = 1
							}
							dl[j] = dLP * (onehot - pr[j])
							dl[j] += p.cfg.EntropyCoef * pr[j] * (math.Log(math.Max(pr[j], 1e-12)) + h)
						}
					}
					vErr := vals[r] - ret[oi]
					valLoss += 0.5 * vErr * vErr
					p.dValsB[r] = p.cfg.ValueCoef * vErr
				}
				p.Net.BackwardBatch(cache, p.dLogitsB, p.dValsB[:b])
			}
			p.opt.Step(p.Net.Layers(), float64(end-start))
		}
	}
	total := float64(n * p.cfg.Epochs)
	stats.PolicyLoss = polLoss / total
	stats.ValueLoss = valLoss / total
	stats.Entropy = entSum / (total * float64(len(p.Net.Heads)))
	stats.ApproxKL = klSum / total
	if visited > 0 {
		stats.ClipVisited = clipped / visited
	}
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
