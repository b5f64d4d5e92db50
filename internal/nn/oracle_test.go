package nn

import "math"

// The scalar reference network: one state at a time, one dot product per
// output unit, math.Tanh per element. This is the implementation the
// row-major kernels in batch.go replaced — kept verbatim, test-only, as the
// oracle TestBatchMatchesScalarOracle compares them against bit for bit.
// It reads and accumulates into the same Linear fields (W, B, GW, GB) the
// kernels do, so a reference net and a kernel net start as Clones and are
// compared accumulator by accumulator.

// refLinearForward computes y = Wx + b into y (len Out). x must have
// length In.
func refLinearForward(l *Linear, x, y []float64) {
	in := l.In
	x = x[:in]
	for o := 0; o < l.Out; o++ {
		sum := l.B[o]
		row := l.W[o*in : o*in+in]
		for i, xi := range x {
			sum += row[i] * xi
		}
		y[o] = sum
	}
}

// refLinearBackward accumulates parameter gradients given the layer input
// x (len In) and the upstream gradient dy, and writes the input gradient
// into dx (len In, may be nil to skip).
func refLinearBackward(l *Linear, x, dy, dx []float64) {
	in := l.In
	x = x[:in]
	for o := 0; o < l.Out; o++ {
		g := dy[o]
		l.GB[o] += g
		grow := l.GW[o*in : o*in+in]
		for i, xi := range x {
			grow[i] += g * xi
		}
	}
	if dx != nil {
		dx = dx[:in]
		for i := range dx {
			dx[i] = 0
		}
		for o := 0; o < l.Out; o++ {
			g := dy[o]
			row := l.W[o*in : o*in+in]
			for i, wi := range row {
				dx[i] += wi * g
			}
		}
	}
}

// refCache holds the intermediate activations of one reference forward
// pass, needed for the corresponding backward pass.
type refCache struct {
	X      []float64
	H1, A1 []float64
	H2, A2 []float64
}

// refForward runs the network on one state, returning per-head logits and
// the value.
func refForward(ac *ActorCritic, x []float64) (logits [][]float64, value float64, c *refCache) {
	c = &refCache{
		X:  append([]float64(nil), x...),
		H1: make([]float64, ac.L1.Out), A1: make([]float64, ac.L1.Out),
		H2: make([]float64, ac.L2.Out), A2: make([]float64, ac.L2.Out),
	}
	refLinearForward(ac.L1, c.X, c.H1)
	for i, v := range c.H1 {
		c.A1[i] = math.Tanh(v)
	}
	refLinearForward(ac.L2, c.A1, c.H2)
	for i, v := range c.H2 {
		c.A2[i] = math.Tanh(v)
	}
	logits = make([][]float64, len(ac.Heads))
	for k, h := range ac.Heads {
		logits[k] = make([]float64, h.Out)
		refLinearForward(h, c.A2, logits[k])
	}
	valOut := make([]float64, 1)
	refLinearForward(ac.Value, c.A2, valOut)
	return logits, valOut[0], c
}

// refBackward accumulates gradients given upstream gradients for each
// head's logits (nil entries are skipped) and the value output (skipped
// when zero).
func refBackward(ac *ActorCritic, c *refCache, dLogits [][]float64, dValue float64) {
	dA2 := make([]float64, ac.L2.Out)
	tmp := make([]float64, ac.L2.Out)
	for k, h := range ac.Heads {
		if dLogits[k] == nil {
			continue
		}
		refLinearBackward(h, c.A2, dLogits[k], tmp)
		for i := range dA2 {
			dA2[i] += tmp[i]
		}
	}
	if dValue != 0 {
		refLinearBackward(ac.Value, c.A2, []float64{dValue}, tmp)
		for i := range dA2 {
			dA2[i] += tmp[i]
		}
	}
	// Through tanh at layer 2.
	dH2 := make([]float64, ac.L2.Out)
	for i := range dH2 {
		dH2[i] = dA2[i] * (1 - c.A2[i]*c.A2[i])
	}
	dA1 := make([]float64, ac.L1.Out)
	refLinearBackward(ac.L2, c.A1, dH2, dA1)
	dH1 := make([]float64, ac.L1.Out)
	for i := range dH1 {
		dH1[i] = dA1[i] * (1 - c.A1[i]*c.A1[i])
	}
	refLinearBackward(ac.L1, c.X, dH1, nil)
}
