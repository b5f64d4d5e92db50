package nn

// The network's compute kernels, row-major over a batch of b states (b = 1
// for a single state). Every kernel is bit-identical to looping the scalar
// per-state reference (oracle_test.go) over the batch rows in ascending
// order: each output element (and each gradient-accumulator element) is
// produced by the same sequence of floating-point operations in the same
// order, so how callers group states into batches can never change a
// result — only how fast it arrives.
//
// All three matrix products reduce to the accumRows primitive (kernel.go),
// which vectorizes across independent accumulator elements and never
// reassociates a reduction:
//
//   - forward holds the batch row's activations as the coefficient vector
//     and streams transposed weight rows (weights-stationary: the wt cache
//     is built once per weight revision and read by every row of every
//     batch until the optimizer steps);
//   - the weight gradient holds a GW row as the accumulator and streams
//     batch input rows against the corresponding upstream-gradient column,
//     so each GW element sees the batch's addends in ascending row order —
//     the accumulator is carried through the rows, never recomputed as a
//     separate partial sum;
//   - the input gradient holds a dx row as the accumulator and streams
//     weight rows in ascending output order, exactly like the scalar loop.
//
// Pinned by the oracle property test in batch_test.go
// (TestBatchMatchesScalarOracle, under both accumRows implementations) and
// by TestCompareGolden end to end.

// forwardBatch computes ys = xs·Wᵀ + b for a batch of b input rows.
// xs is b×In row-major, ys is b×Out row-major. Each output element is the
// same dot product, in the same summation order, as the scalar reference
// computes for its row.
func (l *Linear) forwardBatch(xs, ys []float64, b int) {
	in, out := l.In, l.Out
	wt := l.wtView()
	for r := 0; r < b; r++ {
		y := ys[r*out : r*out+out]
		copy(y, l.B)
		accumRows(y, wt, xs[r*in:], in, out, 1)
	}
}

// wtView returns W transposed to In×Out, rebuilding the cache if the
// weights changed since it was last built.
func (l *Linear) wtView() []float64 {
	if l.wt == nil || l.wtRev != l.rev {
		if l.wt == nil {
			l.wt = make([]float64, len(l.W))
		}
		in, out := l.In, l.Out
		for o := 0; o < out; o++ {
			row := l.W[o*in : o*in+in]
			for i, w := range row {
				l.wt[i*out+o] = w
			}
		}
		l.wtRev = l.rev
	}
	return l.wt
}

// backwardBatch accumulates parameter gradients for a batch: xs is the
// b×In input matrix, dys the b×Out upstream-gradient matrix, and dxs (b×In,
// may be nil to skip) receives the input gradients. It is bit-identical to
// b scalar reference passes in row order: every GW/GB element receives the
// same addends in the same (ascending-row) sequence, and each dxs row sums
// over output units in the same ascending order.
func (l *Linear) backwardBatch(xs, dys, dxs []float64, b int) {
	in, out := l.In, l.Out
	for o := 0; o < out; o++ {
		gb := l.GB[o]
		for r := 0; r < b; r++ {
			gb += dys[r*out+o]
		}
		l.GB[o] = gb
		accumRows(l.GW[o*in:o*in+in], xs, dys[o:], b, in, out)
	}
	if dxs != nil {
		dxs = dxs[: b*in : b*in]
		for i := range dxs {
			dxs[i] = 0
		}
		for r := 0; r < b; r++ {
			accumRows(dxs[r*in:r*in+in], l.W, dys[r*out:], out, in, 1)
		}
	}
}

// SoftmaxBatch computes a row-wise softmax over a b×width matrix: Softmax
// applied to each logits row.
func SoftmaxBatch(logits, probs []float64, b, width int) {
	for r := 0; r < b; r++ {
		Softmax(logits[r*width:(r+1)*width], probs[r*width:(r+1)*width])
	}
}

// BatchCache holds the intermediate activations of one forward pass
// (row-major, B rows), needed for the corresponding BackwardBatch.
type BatchCache struct {
	B      int
	X      []float64 // B×In inputs
	H1, A1 []float64 // B×hidden pre-/post-tanh, layer 1
	H2, A2 []float64 // B×hidden pre-/post-tanh, layer 2
}

// headCols returns the column count of the fused head block: every policy
// head's logits plus the value output in the last column.
func (ac *ActorCritic) headCols() int {
	n := 1
	for _, hd := range ac.Heads {
		n += hd.Out
	}
	return n
}

// batchScratch sizes the forward/backward scratch for b rows, growing to
// the high-water mark so steady state allocates nothing.
func (ac *ActorCritic) batchScratch(b int) *BatchCache {
	c := ac.bw
	if c == nil || b > ac.batchCap {
		in, h1, h2 := ac.L1.In, ac.L1.Out, ac.L2.Out
		c = &BatchCache{
			X:  make([]float64, b*in),
			H1: make([]float64, b*h1), A1: make([]float64, b*h1),
			H2: make([]float64, b*h2), A2: make([]float64, b*h2),
		}
		ac.bw = c
		ac.batchCap = b
		ac.logitsB = make([][]float64, len(ac.Heads))
		for k, hd := range ac.Heads {
			ac.logitsB[k] = make([]float64, b*hd.Out)
		}
		ac.valOutB = make([]float64, b)
		ac.headsOutB = make([]float64, b*ac.headCols())
		ac.dA2B = make([]float64, b*h2)
		ac.dTmpB = make([]float64, b*h2)
		ac.dH2B = make([]float64, b*h2)
		ac.dA1B = make([]float64, b*h1)
		ac.dH1B = make([]float64, b*h1)
	}
	return c
}

// headsView returns the fused head block — the h2×headCols transposed
// weights and the headCols bias vector covering Heads then Value —
// rebuilding it when any source layer's weights changed.
func (ac *ActorCritic) headsView() (wt, bias []float64) {
	h2 := ac.L2.Out
	ncols := ac.headCols()
	fresh := len(ac.headsRevs) == len(ac.Heads)+1
	if fresh {
		for k, hd := range ac.Heads {
			if ac.headsRevs[k] != hd.rev {
				fresh = false
				break
			}
		}
		fresh = fresh && ac.headsRevs[len(ac.Heads)] == ac.Value.rev
	}
	if !fresh {
		if len(ac.headsWT) != h2*ncols {
			ac.headsWT = make([]float64, h2*ncols)
			ac.headsBias = make([]float64, ncols)
			ac.headsRevs = make([]uint64, len(ac.Heads)+1)
		}
		col := 0
		for k := 0; k <= len(ac.Heads); k++ {
			l := ac.Value
			if k < len(ac.Heads) {
				l = ac.Heads[k]
			}
			for j := 0; j < l.Out; j++ {
				ac.headsBias[col] = l.B[j]
				for i := 0; i < h2; i++ {
					ac.headsWT[i*ncols+col] = l.W[j*h2+i]
				}
				col++
			}
			ac.headsRevs[k] = l.rev
		}
	}
	return ac.headsWT, ac.headsBias
}

// ForwardBatch runs the network over b states stacked in xs (b×In
// row-major), returning per-head logits as b×headOut row-major matrices
// and the b value estimates. A single state is ForwardBatch(x, 1): row r
// of every output depends on row r of xs alone, bit for bit, whatever b is.
//
// The returned slices and cache are owned by the network and reused by the
// next ForwardBatch call — copy anything that must outlive it; steady state
// allocates nothing once the scratch has grown to the largest batch seen.
func (ac *ActorCritic) ForwardBatch(xs []float64, b int) (logits [][]float64, values []float64, cache *BatchCache) {
	c := ac.batchScratch(b)
	in, h1, h2 := ac.L1.In, ac.L1.Out, ac.L2.Out
	c.B = b
	c.X = c.X[:b*in]
	c.H1, c.A1 = c.H1[:b*h1], c.A1[:b*h1]
	c.H2, c.A2 = c.H2[:b*h2], c.A2[:b*h2]
	copy(c.X, xs[:b*in])
	ac.L1.forwardBatch(c.X, c.H1, b)
	tanhSlice(c.A1, c.H1)
	ac.L2.forwardBatch(c.A1, c.H2, b)
	tanhSlice(c.A2, c.H2)
	// One fused pass over all heads and the value unit per state, then
	// scatter the block columns into the per-head row-major outputs.
	ncols := ac.headCols()
	hwt, hbias := ac.headsView()
	hout := ac.headsOutB[:b*ncols]
	for r := 0; r < b; r++ {
		y := hout[r*ncols : r*ncols+ncols]
		copy(y, hbias)
		accumRows(y, hwt, c.A2[r*h2:], h2, ncols, 1)
	}
	col := 0
	for k, hd := range ac.Heads {
		w := hd.Out
		lg := ac.logitsB[k][:b*w]
		for r := 0; r < b; r++ {
			copy(lg[r*w:r*w+w], hout[r*ncols+col:r*ncols+col+w])
		}
		ac.logitsB[k] = lg
		col += w
	}
	vals := ac.valOutB[:b]
	for r := 0; r < b; r++ {
		vals[r] = hout[r*ncols+ncols-1]
	}
	return ac.logitsB, vals, c
}

// BackwardBatch accumulates gradients for a forward pass, given per-head
// upstream logit gradients (each b×headOut row-major; nil entries are
// skipped, and a value-only network passes a nil slice) and per-row
// value-output gradients (len B; may be nil). It is bit-identical to B
// scalar reference passes in row order — including the reference's
// dValue == 0 skip, applied here per row, so a row with a zero value
// gradient contributes nothing to the value head or to its trunk gradient.
func (ac *ActorCritic) BackwardBatch(c *BatchCache, dLogits [][]float64, dValues []float64) {
	b := c.B
	h1, h2 := ac.L1.Out, ac.L2.Out
	dA2 := ac.dA2B[:b*h2]
	tmp := ac.dTmpB[:b*h2]
	for i := range dA2 {
		dA2[i] = 0
	}
	for k, hd := range ac.Heads {
		if dLogits[k] == nil {
			continue
		}
		hd.backwardBatch(c.A2, dLogits[k], tmp, b)
		for i := range dA2 {
			dA2[i] += tmp[i]
		}
	}
	if dValues != nil {
		// Fused value-head backward (Out == 1): for each active row,
		// accumulate GB/GW and add W·g into the trunk gradient. The scalar
		// reference routes this through a dx scratch vector, but a single
		// output unit makes dx[i] exactly wᵢ·g, so adding it directly is
		// the same addend dA2 would receive.
		vgb := ac.Value.GB[0]
		vgrow := ac.Value.GW[:h2]
		vrow := ac.Value.W[:h2]
		for r := 0; r < b; r++ {
			if dValues[r] == 0 {
				continue
			}
			vgb += dValues[r]
			accumRows(vgrow, c.A2[r*h2:r*h2+h2], dValues[r:], 1, h2, 1)
			accumRows(dA2[r*h2:r*h2+h2], vrow, dValues[r:], 1, h2, 1)
		}
		ac.Value.GB[0] = vgb
	}
	// Through tanh at layer 2, then the trunk.
	dH2 := ac.dH2B[:b*h2]
	for i := range dH2 {
		dH2[i] = dA2[i] * (1 - c.A2[i]*c.A2[i])
	}
	dA1 := ac.dA1B[:b*h1]
	ac.L2.backwardBatch(c.A1, dH2, dA1, b)
	dH1 := ac.dH1B[:b*h1]
	for i := range dH1 {
		dH1[i] = dA1[i] * (1 - c.A1[i]*c.A1[i])
	}
	ac.L1.backwardBatch(c.X, dH1, nil, b)
}
