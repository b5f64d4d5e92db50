// Package nn is a small, dependency-free neural-network library sized for
// FleetIO's RL models (Table 3: two hidden layers of 50 units, ~9K
// parameters). It provides dense layers with tanh activations, an
// actor-critic network with a shared trunk, multiple categorical policy
// heads and a value head, the Adam optimizer, softmax/categorical
// utilities, and gob serialization. It replaces the paper's
// PyTorch/RLlib stack.
//
// There is one network implementation: ForwardBatch/BackwardBatch run B×In
// row-major batches through reusable BatchCache scratch, allocation-free in
// steady state, and a single state is a one-row batch (ForwardBatch(x, 1)).
// The per-state scalar network they replaced lives on only as the
// test-only oracle in oracle_test.go, which the kernels match bit for bit
// at every batch size (same FP operation order; see docs/PERFORMANCE.md
// "Batched RL kernels").
package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"os"

	"repro/internal/sim"
)

// Linear is a fully connected layer y = Wx + b with gradient accumulators
// and Adam moment buffers.
type Linear struct {
	In, Out int
	W, B    []float64 // W is Out×In row-major

	GW, GB []float64 // accumulated gradients
	MW, VW []float64 // Adam first/second moments for W
	MB, VB []float64 // Adam moments for B

	// Transposed-weight cache for the forward kernel (batch.go):
	// wt is W laid out In×Out so one accumRows pass per state streams
	// contiguous rows. rev counts weight mutations; wt is rebuilt lazily
	// whenever wtRev falls behind. Every in-package mutator (Adam.Step,
	// SetParams, gob decode, Clone) keeps this coherent; code outside the
	// package that changes weights goes through SetParams.
	wt         []float64
	wtRev, rev uint64
}

// noteWeightsChanged invalidates the transposed-weight caches used by the
// forward kernels; Adam.Step and SetParams call it after writing W.
func (l *Linear) noteWeightsChanged() { l.rev++ }

// newLinear builds a layer with Xavier/Glorot-uniform initialization.
func newLinear(in, out int, rng *sim.RNG) *Linear {
	l := &Linear{
		In: in, Out: out,
		W: make([]float64, in*out), B: make([]float64, out),
		GW: make([]float64, in*out), GB: make([]float64, out),
		MW: make([]float64, in*out), VW: make([]float64, in*out),
		MB: make([]float64, out), VB: make([]float64, out),
	}
	bound := math.Sqrt(6.0 / float64(in+out))
	for i := range l.W {
		l.W[i] = (rng.Float64()*2 - 1) * bound
	}
	return l
}

// zeroGrad clears the gradient accumulators.
func (l *Linear) zeroGrad() {
	for i := range l.GW {
		l.GW[i] = 0
	}
	for i := range l.GB {
		l.GB[i] = 0
	}
}

// numParams returns the parameter count.
func (l *Linear) numParams() int { return len(l.W) + len(l.B) }

// Adam is the Adam optimizer (Kingma & Ba) over a set of layers.
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64
	t     int
}

// NewAdam returns Adam with the paper's learning rate and standard betas.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one update using the accumulated gradients (scaled by
// 1/batch) and clears them.
func (a *Adam) Step(layers []*Linear, batch float64) {
	if batch <= 0 {
		batch = 1
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	upd := func(w, g, m, v []float64) {
		for i := range w {
			gi := g[i] / batch
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*gi
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*gi*gi
			mh := m[i] / c1
			vh := v[i] / c2
			w[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
			g[i] = 0
		}
	}
	for _, l := range layers {
		upd(l.W, l.GW, l.MW, l.VW)
		upd(l.B, l.GB, l.MB, l.VB)
		l.noteWeightsChanged()
	}
}

// Softmax writes the softmax of logits into probs (stable).
func Softmax(logits, probs []float64) {
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		p := math.Exp(v - max)
		probs[i] = p
		sum += p
	}
	for i := range probs {
		probs[i] /= sum
	}
}

// SampleCategorical draws an index from the probability vector.
func SampleCategorical(rng *sim.RNG, probs []float64) int {
	u := rng.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(probs) - 1
}

// Argmax returns the index of the largest element.
func Argmax(v []float64) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// Entropy returns the Shannon entropy of a probability vector (nats).
func Entropy(probs []float64) float64 {
	h := 0.0
	for _, p := range probs {
		if p > 1e-12 {
			h -= p * math.Log(p)
		}
	}
	return h
}

// ActorCritic is the FleetIO agent network: a tanh MLP trunk shared by K
// categorical policy heads (one per action dimension — Harvest,
// Make_Harvestable, Set_Priority) and a scalar value head.
type ActorCritic struct {
	L1, L2 *Linear
	Heads  []*Linear
	Value  *Linear

	// Reusable forward/backward scratch (batch.go), sized to the largest
	// batch seen (batchCap rows) so steady-state ForwardBatch/BackwardBatch
	// performs zero allocations (§4.7: the per-window inference runs on
	// every agent every 2 s, and pretraining runs it millions of times).
	// Unexported, so gob round-trips and Clone hand out networks with fresh
	// scratch. Like the network's gradient accumulators, scratch makes a
	// network single-goroutine.
	bw                            *BatchCache
	batchCap                      int
	logitsB                       [][]float64
	valOutB                       []float64
	dA2B, dTmpB, dH2B, dA1B, dH1B []float64

	// Fused output block for the forward pass: all policy heads plus
	// the value head as one h2×(Σ headOut + 1) transposed weight matrix,
	// so one accumRows pass per state covers every output unit instead of
	// one tiny matrix product per head. Rebuilt when any source layer's
	// rev moves (headsRevs mirrors Heads then Value).
	headsWT, headsBias, headsOutB []float64
	headsRevs                     []uint64

	// layers caches the Layers() slice — ZeroGrad and every optimizer step
	// ask for it, and the layer set never changes after construction.
	layers []*Linear
}

// NewActorCritic builds the network: in → hidden tanh → hidden tanh →
// {heads, value}.
func NewActorCritic(in, hidden int, headSizes []int, rng *sim.RNG) *ActorCritic {
	ac := &ActorCritic{
		L1:    newLinear(in, hidden, rng),
		L2:    newLinear(hidden, hidden, rng),
		Value: newLinear(hidden, 1, rng),
	}
	for _, hs := range headSizes {
		ac.Heads = append(ac.Heads, newLinear(hidden, hs, rng))
	}
	return ac
}

// Layers returns every trainable layer. The slice is cached (the layer set
// is fixed after construction); callers must not modify it.
func (ac *ActorCritic) Layers() []*Linear {
	if ac.layers == nil {
		ac.layers = append([]*Linear{ac.L1, ac.L2, ac.Value}, ac.Heads...)
	}
	return ac.layers
}

// ZeroGrad clears all gradient accumulators.
func (ac *ActorCritic) ZeroGrad() {
	for _, l := range ac.Layers() {
		l.zeroGrad()
	}
}

// NumParams returns the total trainable parameter count.
func (ac *ActorCritic) NumParams() int {
	n := 0
	for _, l := range ac.Layers() {
		n += l.numParams()
	}
	return n
}

// Clone deep-copies the network (weights only; fresh grads/moments).
func (ac *ActorCritic) Clone() *ActorCritic {
	cp := func(l *Linear) *Linear {
		n := &Linear{In: l.In, Out: l.Out,
			W: append([]float64(nil), l.W...), B: append([]float64(nil), l.B...),
			GW: make([]float64, len(l.W)), GB: make([]float64, len(l.B)),
			MW: make([]float64, len(l.W)), VW: make([]float64, len(l.W)),
			MB: make([]float64, len(l.B)), VB: make([]float64, len(l.B)),
		}
		return n
	}
	out := &ActorCritic{L1: cp(ac.L1), L2: cp(ac.L2), Value: cp(ac.Value)}
	for _, h := range ac.Heads {
		out.Heads = append(out.Heads, cp(h))
	}
	return out
}

// Params flattens every trainable parameter into one slice, in the stable
// Layers() order (W then B per layer). The result is a copy; it is the
// broadcast format the trainer uses to ship learner weights to collection
// workers and to persist checkpoints.
func (ac *ActorCritic) Params() []float64 {
	out := make([]float64, 0, ac.NumParams())
	for _, l := range ac.Layers() {
		out = append(out, l.W...)
		out = append(out, l.B...)
	}
	return out
}

// SetParams copies a Params()-shaped slice back into the network. Gradient
// accumulators and Adam moments are left untouched.
func (ac *ActorCritic) SetParams(p []float64) error {
	if len(p) != ac.NumParams() {
		return fmt.Errorf("nn: SetParams: got %d values, network has %d params", len(p), ac.NumParams())
	}
	i := 0
	for _, l := range ac.Layers() {
		i += copy(l.W, p[i:i+len(l.W)])
		i += copy(l.B, p[i:i+len(l.B)])
		l.noteWeightsChanged()
	}
	return nil
}

// Encode serializes the network with gob.
func (ac *ActorCritic) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ac); err != nil {
		return nil, fmt.Errorf("nn: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeActorCritic deserializes a network produced by Encode.
func decodeActorCritic(data []byte) (*ActorCritic, error) {
	var ac ActorCritic
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ac); err != nil {
		return nil, fmt.Errorf("nn: decode: %w", err)
	}
	return &ac, nil
}

// SaveFile writes the network to path.
func (ac *ActorCritic) SaveFile(path string) error {
	data, err := ac.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadFile reads a network written by SaveFile.
func LoadFile(path string) (*ActorCritic, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeActorCritic(data)
}
